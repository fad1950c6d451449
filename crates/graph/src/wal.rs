//! Checksummed byte framing for write-ahead-log records.
//!
//! This module is the *byte* layer of the durability stack: it knows how
//! to wrap an opaque record body in a self-describing frame and how to
//! scan a segment's bytes back into bodies, classifying every possible
//! defect as either a **torn tail** (the crash left a partial final
//! frame — recoverable by truncation) or **corruption** (bytes that a
//! crash-at-any-point could never produce — a typed error, never a
//! wrong graph). The record *content* layer (`csag-updates v1` scripts
//! framed per epoch) lives above, in the facade crate's `durability`
//! module, so this layer stays testable against raw bytes.
//!
//! # Frame grammar
//!
//! ```text
//! frame   = header body
//! header  = "!rec " <len:decimal> " " <fnv:16 lowercase hex digits> "\n"
//! body    = exactly <len> bytes, FNV-1a-64 hash == <fnv>
//! segment = frame*
//! ```
//!
//! # Torn vs. corrupt
//!
//! A crash can only truncate the stream (appends are sequential), so at
//! a frame boundary the remaining bytes are always a *prefix* of a
//! well-formed frame. [`scan`] therefore classifies:
//!
//! * header without a newline before EOF → **torn** (truncate here),
//! * complete header, body shorter than `len` → **torn**,
//! * checksum mismatch on a frame ending exactly at EOF → **torn**
//!   (a partial sector write; the unverifiable tail is dropped — the
//!   standard WAL trade-off),
//! * a complete-but-malformed header, or a checksum mismatch with more
//!   bytes after the frame → **corrupt** ([`ScanError`]): truncation
//!   cannot produce these, so the file was damaged, not torn.
//!
//! The `prop_wal` property tests pin this: any byte-truncated prefix of
//! a valid stream scans to an exact record prefix plus a torn (or
//! clean) end — never an error, never a panic, never a reordered or
//! invented record.

use std::fmt;

/// Magic that opens every frame header.
pub const FRAME_MAGIC: &str = "!rec";

/// Largest body [`read_frame`] accepts. The length comes from a socket
/// peer's header, so it is bounded before anything is allocated for it;
/// 64 MiB is far above any update batch a primary ships. [`frame`] and
/// [`scan`] are not limited by it: a larger record is valid in a
/// segment but cannot cross a socket.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Longer than any well-formed header line (magic, 20-digit length,
/// 16-digit checksum, separators): caps what a peer that never sends a
/// newline can make [`read_frame`] buffer.
const MAX_HEADER_LEN: u64 = 64;

/// FNV-1a 64-bit hash — the per-record checksum. Not cryptographic;
/// chosen because it is dependency-free, one multiply per byte, and
/// detects the partial/bit-flipped writes a WAL cares about.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Wraps `body` in a checksummed frame (header + body) ready to append
/// to a segment.
pub fn frame(body: &[u8]) -> Vec<u8> {
    let header = format!("{FRAME_MAGIC} {} {:016x}\n", body.len(), checksum(body));
    let mut out = Vec::with_capacity(header.len() + body.len());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(body);
    out
}

/// How a segment scan ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScanEnd {
    /// The last frame ended exactly at EOF.
    Clean,
    /// A partial final frame: everything from `offset` on is the tail a
    /// crash tore. Truncating the segment to `offset` bytes restores a
    /// clean log.
    Torn {
        /// Byte offset where the torn frame starts.
        offset: usize,
        /// What was wrong with the tail (for reports/logs).
        reason: String,
    },
}

/// A segment's frames plus how the scan ended. Bodies borrow from the
/// scanned buffer — no copies.
#[derive(Debug)]
pub struct Scan<'a> {
    /// `(byte offset of the frame header, body)` in stream order.
    pub frames: Vec<(usize, &'a [u8])>,
    /// Clean EOF or a torn tail.
    pub end: ScanEnd,
}

/// Bytes that no crash-at-any-point could have produced: the segment
/// was damaged (bit flips, concurrent writers, manual edits), so the
/// scan refuses to guess rather than yield a wrong graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanError {
    /// Byte offset of the offending frame.
    pub offset: usize,
    /// What was malformed.
    pub reason: String,
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "corrupt WAL segment at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for ScanError {}

/// Scans a segment's bytes into frames. See the [module docs](self) for
/// the torn-vs-corrupt classification.
///
/// # Errors
/// [`ScanError`] on corruption; a torn tail is **not** an error — it is
/// reported in [`Scan::end`] so the caller can truncate.
pub fn scan(bytes: &[u8]) -> Result<Scan<'_>, ScanError> {
    let mut frames = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        let Some(nl) = bytes[off..].iter().position(|&b| b == b'\n') else {
            return Ok(Scan {
                frames,
                end: ScanEnd::Torn {
                    offset: off,
                    reason: "frame header truncated before newline".into(),
                },
            });
        };
        let header = &bytes[off..off + nl];
        let (len, crc) = match parse_header(header) {
            Ok(parsed) => parsed,
            Err(reason) => {
                return Err(ScanError {
                    offset: off,
                    reason,
                })
            }
        };
        let body_start = off + nl + 1;
        let Some(body_end) = body_start.checked_add(len).filter(|&e| e <= bytes.len()) else {
            return Ok(Scan {
                frames,
                end: ScanEnd::Torn {
                    offset: off,
                    reason: format!(
                        "frame body truncated: header declares {len} bytes, {} remain",
                        bytes.len() - body_start
                    ),
                },
            });
        };
        let body = &bytes[body_start..body_end];
        if checksum(body) != crc {
            if body_end == bytes.len() {
                // The unverifiable final frame: a partial sector write.
                return Ok(Scan {
                    frames,
                    end: ScanEnd::Torn {
                        offset: off,
                        reason: "checksum mismatch on final frame".into(),
                    },
                });
            }
            return Err(ScanError {
                offset: off,
                reason: "checksum mismatch with frames following".into(),
            });
        }
        frames.push((off, body));
        off = body_end;
    }
    Ok(Scan {
        frames,
        end: ScanEnd::Clean,
    })
}

/// Reads one frame from a buffered stream — the incremental twin of
/// [`scan`], for consumers that see bytes arrive over time (the repl
/// socket feed, shard fan-out logs) instead of a whole segment at once.
/// Returns `Ok(None)` on clean EOF at a frame boundary; a short read
/// mid-frame or a checksum mismatch is an `Err` — a stream, unlike a
/// crashed segment, cannot be "torn", only wrong.
///
/// The peer is untrusted: a header line or a declared length above the
/// caps ([`MAX_FRAME_LEN`]) is refused before any buffer grows to it.
///
/// # Errors
/// A human-readable message naming the malformed or oversized header,
/// short body, or checksum mismatch.
pub fn read_frame<R: std::io::BufRead>(reader: &mut R) -> Result<Option<Vec<u8>>, String> {
    use std::io::{BufRead, Read};

    let mut header = String::new();
    match (&mut *reader).take(MAX_HEADER_LEN).read_line(&mut header) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e.to_string()),
    }
    if header.len() as u64 == MAX_HEADER_LEN && !header.ends_with('\n') {
        return Err(format!(
            "frame header exceeds {MAX_HEADER_LEN} bytes without a newline"
        ));
    }
    let (len, crc) = parse_header(header.trim_end_matches('\n').as_bytes())?;
    if len > MAX_FRAME_LEN {
        return Err(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"
        ));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).map_err(|e| e.to_string())?;
    if checksum(&body) != crc {
        return Err("frame checksum mismatch".into());
    }
    Ok(Some(body))
}

/// Parses `!rec <len> <crc>` (without the newline). A complete header
/// that does not parse is corruption — truncation always cuts the
/// newline first.
fn parse_header(header: &[u8]) -> Result<(usize, u64), String> {
    let text = std::str::from_utf8(header).map_err(|_| "frame header is not UTF-8".to_string())?;
    let rest = text
        .strip_prefix(FRAME_MAGIC)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| format!("expected `{FRAME_MAGIC} <len> <crc>`, got `{text}`"))?;
    let mut parts = rest.split(' ');
    let len = parts
        .next()
        .and_then(|p| p.parse::<usize>().ok())
        .ok_or_else(|| format!("bad frame length in `{text}`"))?;
    let crc_field = parts
        .next()
        .ok_or_else(|| format!("missing checksum in `{text}`"))?;
    if parts.next().is_some() || crc_field.len() != 16 {
        return Err(format!("malformed frame header `{text}`"));
    }
    let crc =
        u64::from_str_radix(crc_field, 16).map_err(|_| format!("bad checksum in `{text}`"))?;
    Ok((len, crc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_and_scan_round_trip() {
        let bodies: [&[u8]; 3] = [b"# epoch 1\nadd-edge 0 1\n", b"# epoch 2\n", b""];
        let mut stream = Vec::new();
        for b in bodies {
            stream.extend_from_slice(&frame(b));
        }
        let scan = scan(&stream).unwrap();
        assert_eq!(scan.end, ScanEnd::Clean);
        let got: Vec<&[u8]> = scan.frames.iter().map(|&(_, b)| b).collect();
        assert_eq!(got, bodies);
    }

    #[test]
    fn every_truncation_point_is_torn_or_clean() {
        let mut stream = Vec::new();
        let bodies: Vec<Vec<u8>> = (0..4)
            .map(|i| format!("# epoch {i}\nadd-edge {i} {}\n", i + 1).into_bytes())
            .collect();
        let mut boundaries = vec![0usize];
        for b in &bodies {
            stream.extend_from_slice(&frame(b));
            boundaries.push(stream.len());
        }
        for cut in 0..=stream.len() {
            let scan = scan(&stream[..cut]).expect("truncation is never corruption");
            // The recovered frames are an exact prefix.
            for (i, &(_, body)) in scan.frames.iter().enumerate() {
                assert_eq!(body, &bodies[i][..]);
            }
            if boundaries.contains(&cut) {
                assert_eq!(scan.end, ScanEnd::Clean, "cut at {cut} is a frame boundary");
                assert_eq!(
                    scan.frames.len(),
                    boundaries.iter().filter(|&&b| b < cut).count(),
                    "all frames before the cut survive"
                );
            } else {
                let ScanEnd::Torn { offset, .. } = scan.end else {
                    panic!("cut at {cut} inside a frame must be torn");
                };
                // Truncating at the reported offset yields a clean log.
                let repaired = super::scan(&stream[..offset]).unwrap();
                assert_eq!(repaired.end, ScanEnd::Clean);
            }
        }
    }

    #[test]
    fn mid_stream_damage_is_corruption_not_torn() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&frame(b"# epoch 1\nadd-edge 0 1\n"));
        let first_body = stream.len() - 1; // last byte of frame 1's body
        stream.extend_from_slice(&frame(b"# epoch 2\nremove-edge 0 1\n"));
        let mut flipped = stream.clone();
        flipped[first_body] ^= 0xff;
        let err = scan(&flipped).unwrap_err();
        assert!(err.reason.contains("checksum"), "{err}");
        assert_eq!(err.offset, 0);

        // A malformed-but-complete header is corruption too.
        let mut garbage = b"not a frame\n".to_vec();
        garbage.extend_from_slice(&frame(b"x"));
        assert!(scan(&garbage).is_err());
    }

    #[test]
    fn final_frame_bit_flip_is_a_torn_tail() {
        let mut stream = frame(b"# epoch 1\nadd-edge 0 1\n");
        let last = stream.len() - 1;
        stream[last] ^= 0x01;
        let scan = scan(&stream).unwrap();
        assert!(scan.frames.is_empty());
        assert!(matches!(scan.end, ScanEnd::Torn { offset: 0, .. }));
    }

    #[test]
    fn read_frame_is_the_incremental_scan() {
        let bodies: [&[u8]; 3] = [b"# epoch 1\nadd-edge 0 1\n", b"", b"# epoch 2\n"];
        let mut stream = Vec::new();
        for b in bodies {
            stream.extend_from_slice(&frame(b));
        }
        let mut reader = std::io::Cursor::new(&stream);
        for b in bodies {
            assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some(b));
        }
        assert_eq!(read_frame(&mut reader).unwrap(), None, "clean EOF");

        // A stream cut mid-frame is an error, not a torn tail.
        let mut short = std::io::Cursor::new(&stream[..stream.len() - 1]);
        for b in &bodies[..2] {
            assert_eq!(read_frame(&mut short).unwrap().as_deref(), Some(*b));
        }
        assert!(read_frame(&mut short).is_err());

        // So is a flipped body byte.
        let mut flipped = stream.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        let mut reader = std::io::Cursor::new(&flipped);
        for b in &bodies[..2] {
            assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some(*b));
        }
        assert!(read_frame(&mut reader).unwrap_err().contains("checksum"));
    }

    #[test]
    fn read_frame_refuses_oversized_headers_before_allocating() {
        // The length a hostile peer would use to abort the process.
        let huge = format!("{FRAME_MAGIC} {} {:016x}\nxx", u64::MAX, 0);
        let mut reader = std::io::Cursor::new(huge.as_bytes());
        let err = read_frame(&mut reader).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        assert_eq!(reader.position() as usize, huge.len() - 2, "body unread");

        let over = format!("{FRAME_MAGIC} {} {:016x}\n", MAX_FRAME_LEN + 1, 0);
        assert!(read_frame(&mut std::io::Cursor::new(over.as_bytes())).is_err());

        // A peer that never sends the newline cannot grow the header.
        let mut endless = std::io::BufReader::new(std::io::repeat(b'7'));
        let err = read_frame(&mut endless).unwrap_err();
        assert!(err.contains("without a newline"), "{err}");
    }

    #[test]
    fn checksum_is_order_and_content_sensitive() {
        assert_ne!(checksum(b"ab"), checksum(b"ba"));
        assert_ne!(checksum(b""), checksum(b"\0"));
        assert_eq!(checksum(b"# epoch 1\n"), checksum(b"# epoch 1\n"));
    }
}
