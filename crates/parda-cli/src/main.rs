//! `parda` — reuse distance analysis from the command line.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    // Unlocked: stderr locks per write, so a diagnostic from any other
    // thread (an item worker, the history stage, a decoder) never waits
    // for the run to end.
    let mut err = std::io::stderr();
    std::process::exit(parda_cli::run_split(&argv, &mut out, &mut err));
}
