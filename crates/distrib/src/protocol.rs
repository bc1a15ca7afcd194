//! Framed wire protocol for the distributed Pregel runtime.
//!
//! Every frame on a master↔worker or worker↔worker TCP connection is:
//!
//! ```text
//! magic   u32 LE   0x4758_4450 ("GXDP")
//! version u32 LE   7
//! tag     u8       frame type (see [`Frame`])
//! length  u64 LE   payload byte count
//! crc     u32 LE   CRC-32 (IEEE) of the tag, the length and the payload
//! payload [u8]     the frame's fields in the `graphalytics-codec` encoding
//! ```
//!
//! The payload uses [`Codec`] — the same little-endian fixed-width
//! encoding the fault-tolerance snapshots use — so vertex states and
//! messages travel the wire exactly as they rest on disk. Each payload's
//! field list is stated once, in a [`layout!`] beside its type.
//! Decoding rejects wrong magic, unknown versions or tags, CRC mismatches,
//! truncation, and trailing payload bytes.

use graphalytics_algos::Algorithm;
use graphalytics_codec::{layout, Codec};
use std::io::{self, Read, Write};

/// Frame magic: `"GXDP"` (GraphalyticX Distributed Pregel).
pub const MAGIC: u32 = 0x4758_4450;
/// Wire protocol version. Bump on any layout change. Version 4 tells a
/// worker to crash in [`Frame::StartSuperstep`] instead of shipping it the
/// fault plan, and the Plan carries only what a worker reads. Version 5
/// ships LCC's `pregel::programs::LccMessage` in Shuffle batches: a
/// sender's degree-oriented list or a triangle credit. Version 6 drops
/// `Ready`'s runnable count (a fleet always has a superstep to run) and
/// sends its port as the `u16` it is, so `Ready`'s payload cannot be
/// taken for `Hello`'s when a bit of the tag flips. Version 7's CRC covers
/// the tag and the length as well as the payload, so no flipped tag bit
/// decodes as another frame, whatever the two payloads' layouts.
pub const VERSION: u32 = 7;
/// Header bytes before the payload: magic, version, tag, length, CRC.
const HEADER_LEN: usize = 21;
/// Upper bound on a payload length; larger claims are treated as corrupt
/// framing rather than honored with a giant allocation.
pub const MAX_PAYLOAD: u64 = 1 << 33;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the bytewise table, and
/// `CRC_TABLES[k][i]` is the CRC of byte `i` followed by `k` zero bytes, so
/// one step folds eight input bytes with eight lookups.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3) of `data`, eight bytes per step (slicing-by-8).
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_fold(!0, data)
}

/// A frame's CRC: the CRC-32 of its header's tag and length bytes, then its
/// payload.
fn frame_crc(tag_and_length: &[u8], payload: &[u8]) -> u32 {
    !crc32_fold(crc32_fold(!0, tag_and_length), payload)
}

/// The CRC register `c` after `data`, without the initial and final
/// inversions, so that a CRC can run over several slices.
fn crc32_fold(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The run plan a master hands each worker right after `Hello`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFrame {
    /// This worker's id (0-based).
    pub worker: u32,
    /// Fleet size.
    pub workers: u32,
    /// The kernel to run.
    pub algorithm: Algorithm,
    /// Dataset path prefix (the worker reads `prefix.v` / `prefix.e`).
    pub graph_prefix: String,
    /// Whether the dataset is directed.
    pub directed: bool,
    /// Whether the edge file carries weights.
    pub weighted: bool,
    /// Directory for checkpoint files.
    pub checkpoint_dir: String,
    /// Fleet incarnation (bumped on every checkpoint restart).
    pub incarnation: u32,
    /// When set, restore local state from the checkpoint at this
    /// superstep.
    pub resume: Option<u64>,
    /// Whether the master's tracer is enabled. The worker records spans
    /// on an enabled tracer of its own only when set, and its span clock
    /// starts when it reads this plan; otherwise it ships zero
    /// [`Frame::Telemetry`] frames (the byte-identity contract).
    pub trace: bool,
}

layout!(struct PlanFrame {
    worker,
    workers,
    algorithm,
    graph_prefix,
    directed,
    weighted,
    checkpoint_dir,
    incarnation,
    resume,
    trace,
});

/// Per-superstep result summary a worker reports at the barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// The superstep this report closes.
    pub superstep: u64,
    /// Vertices computed (runnable) this superstep.
    pub computed: u64,
    /// Vertices still active after applying updates.
    pub active_after: u64,
    /// Messages generated.
    pub sent: u64,
    /// Messages whose destination lives on another worker.
    pub sent_remote: u64,
    /// Wire bytes of shuffle frames sent to *other* workers.
    pub bytes_sent: u64,
    /// This worker's aggregator contribution.
    pub aggregate: f64,
}

layout!(struct StepReport { superstep, computed, active_after, sent, sent_remote, bytes_sent, aggregate });

/// One protocol frame. Its tag travels in the frame header, its fields in
/// the payload, both as stated by the `layout!` below.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker → master: first frame on the control connection.
    Hello {
        /// The connecting worker's id.
        worker: u32,
    },
    /// Master → worker: the run plan.
    Plan(PlanFrame),
    /// Worker → master: graph loaded, peer listener bound.
    Ready {
        /// Port of the worker's peer-mesh listener on 127.0.0.1.
        peer_port: u16,
    },
    /// Master → worker: peer listener ports, indexed by worker id.
    Peers {
        /// `ports[w]` is worker `w`'s peer listener port.
        ports: Vec<u32>,
    },
    /// Worker → master: all peer connections established.
    MeshReady,
    /// Master → worker: run one superstep.
    StartSuperstep {
        /// Superstep number.
        superstep: u64,
        /// Global aggregate from the previous superstep.
        prev_aggregate: f64,
        /// Write a checkpoint before computing.
        checkpoint: bool,
        /// Exit with [`EXIT_INJECTED_FAULT`](crate::worker::EXIT_INJECTED_FAULT)
        /// after the checkpoint and before computing: the crash the
        /// master's fault probe chose for this worker.
        crash: bool,
    },
    /// Worker → master: checkpoint written durably.
    CheckpointDone {
        /// Superstep the checkpoint captures.
        superstep: u64,
        /// Encoded snapshot size.
        bytes: u64,
    },
    /// Worker → master: superstep finished.
    StepDone(StepReport),
    /// Master → worker: send final states and exit.
    Finish,
    /// Worker → master: final vertex states for the worker's partition, in
    /// partition-list order, as a codec blob.
    Output {
        /// Reporting worker.
        worker: u32,
        /// Encoded `Vec<State>`.
        states: Vec<u8>,
    },
    /// Worker → worker: one superstep's message batch.
    Shuffle {
        /// Sending worker.
        from: u32,
        /// Superstep the batch belongs to.
        superstep: u64,
        /// Encoded `Vec<(Vid, Message)>` in generation order.
        batch: Vec<u8>,
    },
    /// Worker → worker: identifies the dialing side of a mesh connection.
    PeerHello {
        /// The dialing worker's id.
        from: u32,
    },
    /// Worker → master: the spans the worker's tracer finished since its
    /// last Telemetry frame, piggybacked immediately before `StepDone` (and
    /// before `Output` at EOF). Never sent when the plan's `trace` flag is
    /// off.
    Telemetry {
        /// Reporting worker.
        worker: u32,
        /// The worker process's fleet incarnation (spans from distinct
        /// incarnations land on distinct lanes).
        incarnation: u32,
        /// Encoded `Vec<core::trace::Span>`, timed on the worker's span
        /// clock, which starts when the worker reads its Plan.
        spans: Vec<u8>,
    },
}

layout!(enum Frame {
    1 => Hello { worker },
    2 => Plan(plan),
    3 => Ready { peer_port },
    4 => Peers { ports },
    5 => MeshReady,
    6 => StartSuperstep { superstep, prev_aggregate, checkpoint, crash },
    7 => CheckpointDone { superstep, bytes },
    8 => StepDone(report),
    9 => Finish,
    10 => Output { worker, states },
    11 => Shuffle { from, superstep, batch },
    12 => PeerHello { from },
    13 => Telemetry { worker, incarnation, spans },
});

impl Frame {
    /// Full wire encoding (header + payload), built in one buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + 64);
        self.encode_into(&mut out);
        out
    }

    /// Appends the full wire encoding to `out`: the payload is encoded
    /// after the header, whose length and CRC are filled in once the
    /// payload is there.
    fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        MAGIC.encode_into(out);
        VERSION.encode_into(out);
        out.push(self.tag());
        out.resize(start + HEADER_LEN, 0);
        self.encode_payload(out);
        let (header, payload) = out[start..].split_at_mut(HEADER_LEN);
        header[9..17].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        let crc = frame_crc(&header[8..17], payload);
        header[17..].copy_from_slice(&crc.to_le_bytes());
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes one frame; returns the number of wire bytes written (the unit the
/// network-volume accounting reports).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<usize> {
    write_frames(w, std::slice::from_ref(frame))
}

/// Writes frames that travel together in one `write_all`, so the second
/// never waits on the first's acknowledgement. The bytes and the returned
/// count are those of writing the frames one by one.
pub fn write_frames(w: &mut impl Write, frames: &[Frame]) -> io::Result<usize> {
    let mut bytes = Vec::with_capacity(frames.len() * (HEADER_LEN + 64));
    for frame in frames {
        frame.encode_into(&mut bytes);
    }
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len())
}

/// Reads one frame, verifying magic, version, length, and CRC.
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    read_frame_counted(r).map(|(frame, _)| frame)
}

/// [`read_frame`] that also returns the frame's wire bytes (header plus
/// payload), the count [`write_frame`] returned on the sending side.
pub fn read_frame_counted(r: &mut impl Read) -> io::Result<(Frame, usize)> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let mut pos = 0usize;
    let magic = u32::decode_from(&header, &mut pos).ok_or_else(|| bad("short header"))?;
    if magic != MAGIC {
        return Err(bad(format!("bad frame magic {magic:#010x}")));
    }
    let version = u32::decode_from(&header, &mut pos).ok_or_else(|| bad("short header"))?;
    if version != VERSION {
        return Err(bad(format!("unsupported protocol version {version}")));
    }
    let tag = header[pos];
    pos += 1;
    let len = u64::decode_from(&header, &mut pos).ok_or_else(|| bad("short header"))?;
    if len > MAX_PAYLOAD {
        return Err(bad(format!("payload length {len} exceeds limit")));
    }
    let crc = u32::decode_from(&header, &mut pos).ok_or_else(|| bad("short header"))?;
    // Up to 64 MiB is reserved up front: capacity no byte has been written
    // to yet costs address space, not memory. Past that the buffer grows as
    // bytes arrive, so a corrupt length claim never reserves gigabytes.
    let mut payload = Vec::with_capacity(len.min(1 << 26) as usize);
    r.take(len).read_to_end(&mut payload)?;
    if payload.len() as u64 != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "truncated frame payload",
        ));
    }
    if frame_crc(&header[8..17], &payload) != crc {
        return Err(bad("frame CRC mismatch"));
    }
    let mut pos = 0usize;
    Frame::decode_payload(tag, &payload, &mut pos)
        .filter(|_| pos == payload.len())
        .map(|frame| (frame, HEADER_LEN + payload.len()))
        .ok_or_else(|| bad(format!("malformed payload for frame tag {tag}")))
}

/// Receives the frame a protocol step expects:
/// `expect_frame!(received, Pattern [if guard] => value, "what", args..)`
/// evaluates `received` (an `io::Result<Frame>`) and destructures it. The
/// result is `io::Result<Result<T, String>>`: the outer error is the failed
/// read (a lost peer), the inner one any other frame, as
/// `expected <what>, got tag <tag>`.
macro_rules! expect_frame {
    ($received:expr, $pattern:pat $(if $guard:expr)? => $value:expr, $($what:tt)+) => {
        match $received {
            Ok($pattern) $(if $guard)? => Ok(Ok($value)),
            Ok(other) => Ok(Err(format!(
                "expected {}, got tag {}",
                format_args!($($what)+),
                other.tag()
            ))),
            Err(e) => Err(e),
        }
    };
}
pub(crate) use expect_frame;

/// Encodes a typed value (e.g. a `Vec<(Vid, Message)>` shuffle batch or a
/// `Vec<State>` output) to a codec blob.
pub fn encode_blob<T: Codec>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode_into(&mut out);
    out
}

/// Decodes a blob written by [`encode_blob`], rejecting trailing bytes.
pub fn decode_blob<T: Codec>(buf: &[u8]) -> Option<T> {
    let mut pos = 0usize;
    let value = T::decode_from(buf, &mut pos)?;
    if pos != buf.len() {
        return None;
    }
    Some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden fixture: the exact wire bytes of a `StartSuperstep` frame.
    /// A layout change (field order, widths, endianness, header shape)
    /// breaks this test — bump [`VERSION`] and regenerate deliberately.
    #[test]
    fn golden_start_superstep_layout_is_pinned() {
        let frame = Frame::StartSuperstep {
            superstep: 7,
            prev_aggregate: 2.5,
            checkpoint: true,
            crash: false,
        };
        let expected: Vec<u8> = vec![
            0x50, 0x44, 0x58, 0x47, // magic "GXDP" little-endian
            0x07, 0x00, 0x00, 0x00, // version 7
            0x06, // tag StartSuperstep
            0x12, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // payload length 18
            0xd1, 0x3e, 0xf6, 0x1e, // crc32 of tag, length and payload
            0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // superstep 7
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40, // f64 2.5 bits
            0x01, // checkpoint = true
            0x00, // crash = false
        ];
        assert_eq!(frame.encode(), expected);
    }

    /// Golden fixture for the `Hello` frame (the version handshake): the
    /// first 9 bytes of every connection are pinned forever.
    #[test]
    fn golden_hello_layout_is_pinned() {
        let frame = Frame::Hello { worker: 2 };
        let expected: Vec<u8> = vec![
            0x50, 0x44, 0x58, 0x47, // magic
            0x07, 0x00, 0x00, 0x00, // version
            0x01, // tag Hello
            0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // payload length 4
            0xf3, 0x6c, 0xed, 0x7b, // crc32 of tag, length and payload
            0x02, 0x00, 0x00, 0x00, // worker 2
        ];
        assert_eq!(frame.encode(), expected);
    }

    /// Golden fixture for the `Telemetry` frame (worker span shipping). The
    /// span blob's own layout is `core::trace::Span`'s, pinned there.
    #[test]
    fn golden_telemetry_layout_is_pinned() {
        let frame = Frame::Telemetry {
            worker: 1,
            incarnation: 2,
            spans: vec![0xAA, 0xBB, 0xCC],
        };
        let expected: Vec<u8> = vec![
            0x50, 0x44, 0x58, 0x47, // magic "GXDP" little-endian
            0x07, 0x00, 0x00, 0x00, // version 7
            0x0D, // tag Telemetry
            0x13, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // payload length 19
            0x68, 0x66, 0xd7, 0xc0, // crc32 of tag, length and payload
            0x01, 0x00, 0x00, 0x00, // worker 1
            0x02, 0x00, 0x00, 0x00, // incarnation 2
            0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // spans blob length 3
            0xAA, 0xBB, 0xCC, // opaque span bytes
        ];
        assert_eq!(frame.encode(), expected);
    }

    #[test]
    fn corrupt_payload_is_rejected_by_crc() {
        let mut bytes = Frame::Hello { worker: 9 }.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let good = Frame::MeshReady.encode();
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0x01;
        assert!(read_frame(&mut &bad_magic[..]).is_err());
        let mut bad_version = good.clone();
        bad_version[4] = 0xFE;
        let err = read_frame(&mut &bad_version[..]).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut bytes = Frame::MeshReady.encode();
        bytes[8] = 0xEE;
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let bytes = Frame::Ready { peer_port: 1 }.encode();
        for cut in 0..bytes.len() {
            let err = read_frame(&mut &bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        // Hand-build a Finish frame whose payload claims one stray byte.
        let payload = [0u8];
        let mut bytes = Vec::new();
        MAGIC.encode_into(&mut bytes);
        VERSION.encode_into(&mut bytes);
        bytes.push(Frame::Finish.tag());
        (payload.len() as u64).encode_into(&mut bytes);
        frame_crc(&bytes[8..], &payload).encode_into(&mut bytes);
        bytes.extend_from_slice(&payload);
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_length_claim_is_rejected_without_allocation() {
        let mut bytes = Vec::new();
        MAGIC.encode_into(&mut bytes);
        VERSION.encode_into(&mut bytes);
        bytes.push(Frame::Finish.tag());
        u64::MAX.encode_into(&mut bytes);
        0u32.encode_into(&mut bytes);
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert!(err.to_string().contains("length"), "{err}");
    }

    /// A header may claim up to [`MAX_PAYLOAD`] bytes; the reader only
    /// holds what actually arrives before the stream ends.
    #[test]
    fn a_length_claim_without_bytes_is_eof_not_an_allocation() {
        let mut bytes = Vec::new();
        MAGIC.encode_into(&mut bytes);
        VERSION.encode_into(&mut bytes);
        bytes.push(Frame::Finish.tag());
        (4u64 << 30).encode_into(&mut bytes);
        0u32.encode_into(&mut bytes);
        assert_eq!(bytes.len(), HEADER_LEN);
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// One bit at a time, straight from the polynomial: no table involved.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// Every length around the 8-byte step, at every alignment, so both
    /// the sliced loop and the bytewise tail are exercised.
    #[test]
    fn sliced_crc32_equals_the_bitwise_reference() {
        let buf: Vec<u8> = (0..80u32)
            .map(|i| (i.wrapping_mul(167) ^ 0x5A) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bitwise(data),
                    "offset {offset} len {len}"
                );
            }
        }
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn write_frames_is_the_frames_written_one_by_one() {
        let frames = [
            Frame::Telemetry {
                worker: 1,
                incarnation: 0,
                spans: vec![7; 300],
            },
            Frame::StepDone(StepReport {
                superstep: 4,
                computed: 10,
                active_after: 3,
                sent: 12,
                sent_remote: 5,
                bytes_sent: 640,
                aggregate: 0.25,
            }),
            Frame::Output {
                worker: 1,
                states: vec![1, 2, 3],
            },
        ];
        let mut one_by_one = Vec::new();
        let mut total = 0;
        for frame in &frames {
            total += write_frame(&mut one_by_one, frame).unwrap();
        }
        let mut together = Vec::new();
        assert_eq!(write_frames(&mut together, &frames).unwrap(), total);
        assert_eq!(together, one_by_one);
        assert_eq!(total, one_by_one.len());
        assert_eq!(write_frames(&mut Vec::new(), &[]).unwrap(), 0);

        let mut r = &together[..];
        for frame in &frames {
            let (read, n) = read_frame_counted(&mut r).unwrap();
            assert_eq!(&read, frame);
            assert_eq!(n, frame.encode().len());
        }
        assert!(r.is_empty());
    }

    #[test]
    fn blob_round_trip_rejects_trailing_bytes() {
        let batch: Vec<(u32, u64)> = vec![(1, 10), (2, 20)];
        let mut blob = encode_blob(&batch);
        assert_eq!(decode_blob::<Vec<(u32, u64)>>(&blob), Some(batch));
        blob.push(0);
        assert_eq!(decode_blob::<Vec<(u32, u64)>>(&blob), None);
    }

    #[test]
    fn expect_frame_tells_a_failed_read_from_a_wrong_frame() {
        let hello = |worker| Ok::<_, io::Error>(Frame::Hello { worker });
        let w = 3u32;
        let pick = expect_frame!(hello(3), Frame::Hello { worker } if worker == w => 1, "Hello");
        assert_eq!(pick.unwrap(), Ok(1));
        let guarded = expect_frame!(hello(1), Frame::Hello { worker } if worker == w => 1, "Hello");
        assert_eq!(
            guarded.unwrap(),
            Err("expected Hello, got tag 1".to_string())
        );
        let wrong = expect_frame!(
            Ok::<_, io::Error>(Frame::MeshReady),
            Frame::Ready { peer_port, .. } => peer_port,
            "Ready from {w}"
        );
        assert_eq!(
            wrong.unwrap(),
            Err("expected Ready from 3, got tag 5".to_string())
        );
        let lost = expect_frame!(
            read_frame(&mut &[][..]),
            Frame::MeshReady => (),
            "MeshReady"
        );
        assert_eq!(lost.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }
}
