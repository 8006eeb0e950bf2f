//! The compressed-stream names of the [`crate::kernel`] merges.
//!
//! There is one REGION algebra: the generic cursor kernels in
//! [`crate::kernel`] merge decoded slices and queryable compressed
//! payloads alike.  This module only keeps the import paths the
//! benchmark (`perfbench/`) is written against.

pub use crate::kernel::{
    intersect as intersect_stream, intersect_many as intersect_k_stream, union as union_stream,
};
