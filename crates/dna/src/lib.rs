//! DNA sequence primitives for De Bruijn graph construction.
//!
//! This crate is the bottom substrate of the ParaHash reproduction. It
//! provides:
//!
//! * [`Base`] — the four-letter alphabet Σ = {A, C, G, T} with the
//!   2-bit encoding used throughout the system (unknown input characters
//!   normalise to `A`, following the convention the paper adopts from
//!   mainstream assemblers).
//! * [`PackedSeq`] — an arbitrary-length 2-bit packed sequence.
//! * [`Kmer`] — a fixed-length (≤ [`MAX_K`]) multi-word k-mer with
//!   reverse-complement, canonical form and neighbour operations.
//! * [`SeqRead`] plus streaming FASTA/FASTQ parsers and writers.
//! * [`simd`] — runtime-dispatched word-parallel packing kernels and the
//!   `PARAHASH_FORCE_SCALAR` escape hatch gating every vector path.
//! * [`crc32`] — the one CRC-32 every checksummed format in the system
//!   uses (gzip trailers, partition frames, subgraphs, journal, wire).
//! * [`gzip`] + [`InputBytes`] + [`FastqSliceReader`] — the
//!   memory-mapped, record-chunked input layer behind parallel FASTQ
//!   ingest.
//!
//! # Examples
//!
//! ```
//! use dna::{Kmer, PackedSeq};
//!
//! let seq = PackedSeq::from_ascii(b"ACGTTGCA");
//! let kmers: Vec<Kmer> = seq.kmers(5).collect();
//! assert_eq!(kmers.len(), 4);
//! assert_eq!(kmers[0].to_string(), "ACGTT");
//! assert_eq!(kmers[0].revcomp().to_string(), "AACGT");
//! ```

mod base;
mod crc;
mod cursor;
mod error;
mod fasta;
mod fastq;
pub mod gzip;
mod input;
mod kmer;
mod packed;
pub mod quality;
mod read;
pub mod simd;

pub use base::Base;
pub use crc::crc32;
pub use cursor::CanonicalKmerCursor;
pub use error::DnaError;
pub use fasta::{FastaReader, FastaWriter};
pub use fastq::{
    chunk_record_ranges, next_record_start, FastqReader, FastqSliceReader, FastqWriter,
    RecordView,
};
pub use input::InputBytes;
pub use kmer::{Kmer, Orientation, MAX_K};
pub use packed::{Bases, Kmers, PackedSeq};
pub use read::SeqRead;

/// Result alias used by every fallible API in this crate.
pub type Result<T> = std::result::Result<T, DnaError>;
