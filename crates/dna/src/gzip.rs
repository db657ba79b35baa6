//! Minimal gzip (RFC 1952) + DEFLATE (RFC 1951) support for FASTQ input.
//!
//! Sequencing archives are conventionally gzip-compressed, and the large
//! ones are **multi-member** (BGZF — bgzip/htslib — writes one gzip
//! member per ~64 KiB block with the compressed block size recorded in
//! an extra-field subfield). This module gives the input layer what it
//! needs and nothing more:
//!
//! * [`is_gzip`] — magic-byte sniff;
//! * [`member_ranges`] — frame a multi-member stream into per-member
//!   byte ranges *without* inflating when the BGZF `BC` subfield is
//!   present (inflating to find the boundary otherwise), so members can
//!   be decompressed in parallel;
//! * [`decompress_member`] / [`decompress`] — a dependency-free
//!   inflater (stored, fixed-Huffman and dynamic-Huffman blocks) with
//!   CRC32 and ISIZE verification;
//! * [`compress_stored`] / [`compress_bgzf`] — writers emitting
//!   stored-block members (the latter BGZF-framed), used by tests and
//!   fixtures.
//!
//! Decompression throughput is not a goal: ingest treats gzip as a
//! framing problem (split members, inflate each once, then run the
//! record-parallel FASTQ chunking on the plain bytes).

use std::io;
use std::ops::Range;

use crate::{crc32, DnaError};

/// Gzip magic bytes.
const MAGIC: [u8; 2] = [0x1f, 0x8b];

const FHCRC: u8 = 0x02;
const FEXTRA: u8 = 0x04;
const FNAME: u8 = 0x08;
const FCOMMENT: u8 = 0x10;

fn bad(msg: impl std::fmt::Display) -> DnaError {
    DnaError::Io(io::Error::new(io::ErrorKind::InvalidData, format!("gzip: {msg}")))
}

/// Whether `data` starts with the gzip magic bytes.
pub fn is_gzip(data: &[u8]) -> bool {
    data.len() >= 2 && data[..2] == MAGIC
}

/// Parsed gzip member header: total header length and, when the member
/// carries the BGZF `BC` subfield, the recorded `BSIZE` (total member
/// length − 1).
struct Header {
    len: usize,
    bgzf_bsize: Option<usize>,
}

fn parse_header(data: &[u8]) -> Result<Header, DnaError> {
    if data.len() < 10 {
        return Err(bad("truncated header"));
    }
    if data[..2] != MAGIC {
        return Err(bad("bad magic bytes"));
    }
    if data[2] != 8 {
        return Err(bad(format!("unsupported compression method {}", data[2])));
    }
    let flags = data[3];
    let mut pos = 10usize;
    let mut bgzf_bsize = None;
    if flags & FEXTRA != 0 {
        if data.len() < pos + 2 {
            return Err(bad("truncated extra field"));
        }
        let xlen = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2;
        let extra =
            data.get(pos..pos + xlen).ok_or_else(|| bad("truncated extra field"))?;
        // Walk the subfields looking for BGZF's "BC" (length 2, BSIZE).
        let mut sub = extra;
        while sub.len() >= 4 {
            let slen = u16::from_le_bytes([sub[2], sub[3]]) as usize;
            if sub.len() < 4 + slen {
                break;
            }
            if sub[0] == b'B' && sub[1] == b'C' && slen == 2 {
                bgzf_bsize = Some(u16::from_le_bytes([sub[4], sub[5]]) as usize);
            }
            sub = &sub[4 + slen..];
        }
        pos += xlen;
    }
    for flag in [FNAME, FCOMMENT] {
        if flags & flag != 0 {
            let nul = data[pos..]
                .iter()
                .position(|&b| b == 0)
                .ok_or_else(|| bad("unterminated name/comment"))?;
            pos += nul + 1;
        }
    }
    if flags & FHCRC != 0 {
        pos += 2;
    }
    if pos > data.len() {
        return Err(bad("truncated header"));
    }
    Ok(Header { len: pos, bgzf_bsize })
}

/// Splits a (possibly multi-member) gzip stream into one byte range per
/// member. BGZF-framed members are split by their recorded `BSIZE`
/// without touching the compressed payload; others are inflated (and
/// discarded) to locate the boundary.
///
/// # Errors
///
/// Returns [`DnaError::Io`] (`InvalidData`) for malformed streams.
pub fn member_ranges(data: &[u8]) -> Result<Vec<Range<usize>>, DnaError> {
    let mut ranges = Vec::new();
    let mut offset = 0usize;
    while offset < data.len() {
        let header = parse_header(&data[offset..])?;
        let end = match header.bgzf_bsize {
            Some(bsize) => {
                let end = offset + bsize + 1;
                if end > data.len() {
                    return Err(bad("BGZF BSIZE overruns the stream"));
                }
                end
            }
            None => {
                let mut scratch = Vec::new();
                offset + inflate_member(&data[offset..], header.len, &mut scratch)?
            }
        };
        ranges.push(offset..end);
        offset = end;
    }
    Ok(ranges)
}

/// Decompresses exactly one gzip member (which must start at byte 0 of
/// `member`), appending the plain bytes to `out` and verifying the
/// trailer CRC32/ISIZE. Returns the member's encoded length.
///
/// # Errors
///
/// Returns [`DnaError::Io`] (`InvalidData`) for malformed or corrupt
/// members.
pub fn decompress_member(member: &[u8], out: &mut Vec<u8>) -> Result<usize, DnaError> {
    let header = parse_header(member)?;
    inflate_member(member, header.len, out)
}

/// Decompresses a whole (possibly multi-member) gzip stream.
///
/// # Errors
///
/// Returns [`DnaError::Io`] (`InvalidData`) for malformed or corrupt
/// streams.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DnaError> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    while offset < data.len() {
        offset += decompress_member(&data[offset..], &mut out)?;
    }
    Ok(out)
}

/// Inflates the deflate stream at `deflate_start` and checks the
/// trailer. Returns the total member length.
fn inflate_member(
    member: &[u8],
    deflate_start: usize,
    out: &mut Vec<u8>,
) -> Result<usize, DnaError> {
    let produced_before = out.len();
    let mut br = BitReader { data: member, byte: deflate_start, bit: 0 };
    inflate(&mut br, out)?;
    br.align_byte();
    let trailer =
        member.get(br.byte..br.byte + 8).ok_or_else(|| bad("truncated trailer"))?;
    let want_crc = u32::from_le_bytes(trailer[..4].try_into().unwrap());
    let want_len = u32::from_le_bytes(trailer[4..].try_into().unwrap());
    let produced = &out[produced_before..];
    if produced.len() as u32 != want_len {
        return Err(bad(format!(
            "ISIZE mismatch: trailer says {want_len}, inflated {} bytes",
            produced.len()
        )));
    }
    if crc32(produced) != want_crc {
        return Err(bad("CRC32 mismatch"));
    }
    Ok(br.byte + 8)
}

/// LSB-first bit reader over a byte slice (the DEFLATE bit order).
struct BitReader<'a> {
    data: &'a [u8],
    byte: usize,
    bit: u32,
}

impl BitReader<'_> {
    #[inline]
    fn take_bit(&mut self) -> Result<u32, DnaError> {
        let b = *self.data.get(self.byte).ok_or_else(|| bad("unexpected end of stream"))?;
        let out = (b >> self.bit) & 1;
        self.bit += 1;
        if self.bit == 8 {
            self.bit = 0;
            self.byte += 1;
        }
        Ok(out as u32)
    }

    fn bits(&mut self, n: u32) -> Result<u32, DnaError> {
        let mut out = 0u32;
        for i in 0..n {
            out |= self.take_bit()? << i;
        }
        Ok(out)
    }

    fn align_byte(&mut self) {
        if self.bit != 0 {
            self.bit = 0;
            self.byte += 1;
        }
    }
}

/// A canonical Huffman decoder (the counts/symbols walk of RFC 1951
/// §3.2.2 — decode advances one bit at a time through the length bands).
struct Huffman {
    counts: [u16; 16],
    symbols: Vec<u16>,
}

impl Huffman {
    fn new(lengths: &[u8]) -> Result<Huffman, DnaError> {
        let mut counts = [0u16; 16];
        for &len in lengths {
            counts[len as usize] += 1;
        }
        counts[0] = 0;
        // Over-subscribed codes are malformed; incomplete ones are legal
        // (e.g. the single-distance-code case) and just decode less.
        let mut left = 1i32;
        for &c in &counts[1..] {
            left = (left << 1) - c as i32;
            if left < 0 {
                return Err(bad("over-subscribed huffman code"));
            }
        }
        let mut offsets = [0u16; 16];
        for len in 1..15 {
            offsets[len + 1] = offsets[len] + counts[len];
        }
        let mut symbols = vec![0u16; lengths.iter().filter(|&&l| l != 0).count()];
        for (sym, &len) in lengths.iter().enumerate() {
            if len != 0 {
                symbols[offsets[len as usize] as usize] = sym as u16;
                offsets[len as usize] += 1;
            }
        }
        Ok(Huffman { counts, symbols })
    }

    fn decode(&self, br: &mut BitReader<'_>) -> Result<u16, DnaError> {
        let mut code = 0i32;
        let mut first = 0i32;
        let mut index = 0i32;
        for len in 1..=15 {
            code |= br.take_bit()? as i32;
            let count = self.counts[len] as i32;
            if code - first < count {
                return Ok(self.symbols[(index + code - first) as usize]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(bad("invalid huffman code"))
    }
}

const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115,
    131, 163, 195, 227, 258,
];
const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12,
    13, 13,
];
/// Order in which code-length-code lengths are stored (RFC 1951 §3.2.7).
const CLC_ORDER: [usize; 19] =
    [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];

fn inflate(br: &mut BitReader<'_>, out: &mut Vec<u8>) -> Result<(), DnaError> {
    loop {
        let last = br.bits(1)?;
        match br.bits(2)? {
            0 => {
                br.align_byte();
                let header = br
                    .data
                    .get(br.byte..br.byte + 4)
                    .ok_or_else(|| bad("truncated stored block"))?;
                let len = u16::from_le_bytes(header[..2].try_into().unwrap());
                let nlen = u16::from_le_bytes(header[2..].try_into().unwrap());
                if len != !nlen {
                    return Err(bad("stored block LEN/NLEN mismatch"));
                }
                br.byte += 4;
                let body = br
                    .data
                    .get(br.byte..br.byte + len as usize)
                    .ok_or_else(|| bad("truncated stored block"))?;
                out.extend_from_slice(body);
                br.byte += len as usize;
            }
            1 => {
                let (lit, dist) = fixed_tables()?;
                inflate_block(br, &lit, &dist, out)?;
            }
            2 => {
                let (lit, dist) = dynamic_tables(br)?;
                inflate_block(br, &lit, &dist, out)?;
            }
            _ => return Err(bad("reserved block type")),
        }
        if last == 1 {
            return Ok(());
        }
    }
}

fn fixed_tables() -> Result<(Huffman, Huffman), DnaError> {
    let mut lit = [0u8; 288];
    lit[..144].fill(8);
    lit[144..256].fill(9);
    lit[256..280].fill(7);
    lit[280..].fill(8);
    Ok((Huffman::new(&lit)?, Huffman::new(&[5u8; 30])?))
}

fn dynamic_tables(br: &mut BitReader<'_>) -> Result<(Huffman, Huffman), DnaError> {
    let hlit = br.bits(5)? as usize + 257;
    let hdist = br.bits(5)? as usize + 1;
    let hclen = br.bits(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(bad("bad dynamic table counts"));
    }
    let mut clc_lengths = [0u8; 19];
    for &idx in CLC_ORDER.iter().take(hclen) {
        clc_lengths[idx] = br.bits(3)? as u8;
    }
    let clc = Huffman::new(&clc_lengths)?;
    let mut lengths = vec![0u8; hlit + hdist];
    let mut i = 0usize;
    while i < lengths.len() {
        let sym = clc.decode(br)?;
        match sym {
            0..=15 => {
                lengths[i] = sym as u8;
                i += 1;
            }
            16 => {
                if i == 0 {
                    return Err(bad("repeat with no previous length"));
                }
                let prev = lengths[i - 1];
                let reps = br.bits(2)? as usize + 3;
                for _ in 0..reps {
                    *lengths.get_mut(i).ok_or_else(|| bad("length repeat overrun"))? = prev;
                    i += 1;
                }
            }
            17 | 18 => {
                let reps = if sym == 17 {
                    br.bits(3)? as usize + 3
                } else {
                    br.bits(7)? as usize + 11
                };
                if i + reps > lengths.len() {
                    return Err(bad("length repeat overrun"));
                }
                i += reps;
            }
            _ => return Err(bad("bad code-length symbol")),
        }
    }
    let lit = Huffman::new(&lengths[..hlit])?;
    let dist = Huffman::new(&lengths[hlit..])?;
    Ok((lit, dist))
}

fn inflate_block(
    br: &mut BitReader<'_>,
    lit: &Huffman,
    dist: &Huffman,
    out: &mut Vec<u8>,
) -> Result<(), DnaError> {
    loop {
        let sym = lit.decode(br)?;
        match sym {
            0..=255 => out.push(sym as u8),
            256 => return Ok(()),
            257..=285 => {
                let idx = sym as usize - 257;
                let len =
                    LENGTH_BASE[idx] as usize + br.bits(LENGTH_EXTRA[idx] as u32)? as usize;
                let dsym = dist.decode(br)? as usize;
                if dsym >= 30 {
                    return Err(bad("bad distance symbol"));
                }
                let distance =
                    DIST_BASE[dsym] as usize + br.bits(DIST_EXTRA[dsym] as u32)? as usize;
                if distance > out.len() {
                    return Err(bad("distance beyond output start"));
                }
                // Byte-by-byte on purpose: overlapping copies (distance <
                // len) replicate the window, per the spec.
                let start = out.len() - distance;
                for j in 0..len {
                    let b = out[start + j];
                    out.push(b);
                }
            }
            _ => return Err(bad("bad literal/length symbol")),
        }
    }
}

/// Largest plain-byte payload per stored DEFLATE block.
const STORED_BLOCK_MAX: usize = 0xFFFF;
/// Plain bytes per BGZF member in [`compress_bgzf`]: small enough that
/// a stored-block member (payload + ~5 bytes of block framing per
/// 64 KiB + ~26 bytes of member framing) always fits `BSIZE`'s 16 bits.
const BGZF_MEMBER_MAX: usize = 60_000;

fn write_member(data: &[u8], bgzf: bool, out: &mut Vec<u8>) {
    let member_start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(8); // CM = deflate
    out.push(if bgzf { FEXTRA } else { 0 });
    out.extend_from_slice(&[0, 0, 0, 0]); // MTIME
    out.push(0); // XFL
    out.push(0xFF); // OS = unknown
    let bsize_at = if bgzf {
        out.extend_from_slice(&6u16.to_le_bytes()); // XLEN
        out.extend_from_slice(b"BC");
        out.extend_from_slice(&2u16.to_le_bytes());
        let at = out.len();
        out.extend_from_slice(&[0, 0]); // BSIZE, patched below
        Some(at)
    } else {
        None
    };
    // Stored blocks only: this writer exists for tests and fixtures.
    let mut chunks = data.chunks(STORED_BLOCK_MAX).peekable();
    if chunks.peek().is_none() {
        out.extend_from_slice(&[0x01, 0, 0, 0xFF, 0xFF]); // final empty block
    }
    while let Some(chunk) = chunks.next() {
        out.push(if chunks.peek().is_none() { 0x01 } else { 0x00 });
        out.extend_from_slice(&(chunk.len() as u16).to_le_bytes());
        out.extend_from_slice(&(!(chunk.len() as u16)).to_le_bytes());
        out.extend_from_slice(chunk);
    }
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    if let Some(at) = bsize_at {
        let bsize = (out.len() - member_start - 1) as u16;
        out[at..at + 2].copy_from_slice(&bsize.to_le_bytes());
    }
}

/// Compresses `data` into a single gzip member of stored (uncompressed)
/// DEFLATE blocks. Test/fixture helper — no actual compression.
pub fn compress_stored(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + 64);
    write_member(data, false, &mut out);
    out
}

/// Compresses `data` into a BGZF-style multi-member gzip stream (stored
/// blocks, `BC` subfield with `BSIZE` per member) so the framing fast
/// path in [`member_ranges`] is exercised. Test/fixture helper.
pub fn compress_bgzf(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + 256);
    if data.is_empty() {
        write_member(data, true, &mut out);
        return out;
    }
    for chunk in data.chunks(BGZF_MEMBER_MAX) {
        write_member(chunk, true, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| b"@r0\nACGTACGGATTACA\n+\nIIIIIIIIIIIIII\n"[i % 35]).collect()
    }

    #[test]
    fn stored_roundtrip() {
        for n in [0usize, 1, 100, STORED_BLOCK_MAX, STORED_BLOCK_MAX + 1, 200_000] {
            let plain = sample(n);
            let gz = compress_stored(&plain);
            assert!(is_gzip(&gz));
            assert_eq!(decompress(&gz).unwrap(), plain, "n={n}");
            assert_eq!(member_ranges(&gz).unwrap(), vec![0..gz.len()], "n={n}");
        }
    }

    #[test]
    fn bgzf_roundtrip_and_framing() {
        let plain = sample(150_000);
        let gz = compress_bgzf(&plain);
        assert_eq!(decompress(&gz).unwrap(), plain);
        let ranges = member_ranges(&gz).unwrap();
        assert_eq!(ranges.len(), 3, "150k plain bytes → 3 BGZF members");
        // Framing must tile the stream and each member must decompress
        // independently to the matching plain slice.
        let mut off = 0usize;
        let mut plain_off = 0usize;
        for r in &ranges {
            assert_eq!(r.start, off);
            let mut piece = Vec::new();
            let used = decompress_member(&gz[r.start..], &mut piece).unwrap();
            assert_eq!(used, r.len());
            assert_eq!(piece, plain[plain_off..plain_off + piece.len()]);
            plain_off += piece.len();
            off = r.end;
        }
        assert_eq!(off, gz.len());
        assert_eq!(plain_off, plain.len());
    }

    #[test]
    fn multi_member_concatenation() {
        let a = sample(1000);
        let b = sample(37);
        let mut gz = compress_stored(&a);
        gz.extend_from_slice(&compress_stored(&b));
        let mut want = a;
        want.extend_from_slice(&b);
        assert_eq!(decompress(&gz).unwrap(), want);
        assert_eq!(member_ranges(&gz).unwrap().len(), 2);
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let mut gz = compress_stored(&sample(500));
        let mid = gz.len() / 2;
        gz[mid] ^= 0x40;
        let err = decompress(&gz).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("CRC32") || msg.contains("LEN/NLEN") || msg.contains("gzip"),
            "{msg}"
        );
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let gz = compress_stored(&sample(500));
        for cut in [1usize, 5, 11, gz.len() - 1] {
            assert!(decompress(&gz[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn fixed_huffman_member_inflates() {
        // A real zlib-emitted fixed-Huffman member of "hello hello\n":
        // exercises block type 1 plus an LZ77 length/distance copy.
        let gz: [u8; 29] = [
            0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xcb, 0x48, 0xcd,
            0xc9, 0xc9, 0x57, 0xc8, 0x00, 0x91, 0x5c, 0x00, 0xa5, 0x6a, 0x0a, 0x44, 0x0c,
            0x00, 0x00, 0x00,
        ];
        assert_eq!(decompress(&gz).unwrap(), b"hello hello\n");
        assert_eq!(member_ranges(&gz).unwrap(), vec![0..gz.len()]);
    }

    #[test]
    fn dynamic_huffman_member_inflates() {
        // A real zlib level-9 member of 600 mixed FASTQ-alphabet bytes,
        // whose first block is dynamic-Huffman (type 2). A successful
        // decompress proves the decoder byte-exact: the trailer CRC32 and
        // ISIZE are verified against the inflated output.
        let gz: [u8; 311] = [
            0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0x1d, 0x92, 0xbb,
            0x11, 0xc0, 0x30, 0x08, 0x43, 0x7b, 0x56, 0xd1, 0x12, 0x70, 0x2a, 0x38, 0xf5,
            0xec, 0x3f, 0x4b, 0x9e, 0x93, 0x22, 0x17, 0x63, 0xd0, 0x8f, 0x68, 0x6b, 0x6c,
            0xcd, 0x8d, 0xab, 0x7c, 0xe6, 0x74, 0x53, 0x1c, 0xb7, 0x6b, 0xdd, 0xeb, 0x93,
            0x3d, 0x97, 0x52, 0xa2, 0xbe, 0x3d, 0x77, 0x94, 0xb6, 0x6b, 0xb5, 0xa1, 0x5b,
            0xe2, 0xc6, 0x54, 0x3d, 0x9d, 0x2e, 0x4d, 0xb4, 0xce, 0x5c, 0xef, 0x55, 0xc5,
            0xf4, 0xf4, 0x16, 0xf5, 0xba, 0xf5, 0xee, 0xdd, 0x64, 0xbb, 0x67, 0x4b, 0xda,
            0x49, 0xf1, 0x18, 0x94, 0xf3, 0x65, 0x51, 0xe1, 0xf9, 0xdf, 0x57, 0xdb, 0xc0,
            0xda, 0xe1, 0x69, 0x53, 0xeb, 0xec, 0x1c, 0x13, 0xed, 0xd6, 0xea, 0x74, 0x77,
            0x75, 0x17, 0xcd, 0x23, 0x3d, 0x45, 0xf2, 0xc3, 0xe0, 0x22, 0x08, 0x40, 0x1d,
            0x78, 0x25, 0x57, 0x0a, 0xd2, 0x9d, 0xcd, 0x22, 0x6b, 0x67, 0xbc, 0x8c, 0x4d,
            0x1f, 0x33, 0xf8, 0x1b, 0xa5, 0xa8, 0x82, 0x4d, 0x13, 0x06, 0xa0, 0x9c, 0xbb,
            0x1e, 0xf4, 0x3b, 0xba, 0x4e, 0x68, 0x04, 0x08, 0x1c, 0xf0, 0x89, 0x07, 0x2d,
            0xda, 0xde, 0x90, 0x53, 0xf6, 0xb6, 0x9e, 0x2d, 0xa8, 0xc5, 0x64, 0xa6, 0x44,
            0x2c, 0x47, 0x14, 0xd8, 0xfb, 0x3d, 0xc3, 0xe9, 0x67, 0x95, 0x97, 0x9b, 0x9b,
            0x06, 0x57, 0xc4, 0x81, 0xdd, 0xa5, 0x7e, 0x8d, 0x0e, 0xd2, 0xd0, 0xf4, 0x0c,
            0x11, 0x5f, 0x9e, 0xde, 0x3e, 0x4c, 0xa0, 0x7d, 0x96, 0x21, 0x24, 0x9a, 0x4a,
            0x23, 0x71, 0x3b, 0x43, 0x28, 0x7a, 0xea, 0x09, 0x42, 0xe4, 0x46, 0xeb, 0x03,
            0x66, 0x83, 0x35, 0x60, 0xf1, 0x21, 0xe0, 0x76, 0xea, 0x31, 0xcc, 0xec, 0xf3,
            0xff, 0x80, 0x19, 0x37, 0x59, 0x92, 0x1d, 0xb1, 0x25, 0x6f, 0xf2, 0x49, 0x50,
            0xd3, 0x4b, 0x5c, 0x48, 0x4b, 0xe3, 0x35, 0xcf, 0x1f, 0x24, 0xe1, 0x9e, 0x94,
            0x8c, 0x48, 0xcc, 0x5a, 0x6f, 0x04, 0x35, 0xf9, 0x37, 0xa9, 0xfa, 0xed, 0x42,
            0x8f, 0x90, 0xd6, 0xfb, 0x69, 0xb0, 0xc4, 0x5e, 0x86, 0x85, 0xb3, 0xe6, 0x13,
            0x6a, 0x60, 0xff, 0x00, 0xeb, 0x13, 0xc6, 0xfe, 0x58, 0x02, 0x00, 0x00,
        ];
        let out = decompress(&gz).unwrap();
        assert_eq!(out.len(), 600);
        assert!(out.starts_with(b"+G\nACC+ATAC\n"));
        // Boundary discovery must also work without a BGZF subfield
        // (inflate-to-find-end fallback).
        assert_eq!(member_ranges(&gz).unwrap(), vec![0..gz.len()]);
    }
}
