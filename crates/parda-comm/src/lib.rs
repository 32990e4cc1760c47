//! The bounded trace pipe: the stand-in for the Linux pipe between the Pin
//! tracer and the analyzer (paper Figure 3).
//!
//! [`pipe()`] returns a bounded producer/consumer channel of address
//! batches. The producer blocks when the analyzer falls behind, and the
//! reading end is an [`AddressStream`](parda_trace::AddressStream) that
//! the streaming analyzers consume directly. The paper's MPI rank
//! exchanges are shared-memory here: `parda-core`'s parallel driver runs
//! every rank's work on worker threads.

pub mod pipe;

pub use pipe::{pipe, PipeReader, PipeWriter};
