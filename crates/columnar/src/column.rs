//! Compressed columns with vectored (block-at-a-time) access.
//!
//! "Virtuoso features column-wise compression, vectored execution, and
//! intra-query parallelism" (paper §3.4). Columns here store u64 values in
//! blocks of [`BLOCK`] values; each block picks the cheapest of three
//! encodings at append time:
//!
//! * **FOR bit-packing** — frame of reference (block minimum) plus
//!   fixed-width packed offsets;
//! * **Delta bit-packing** — first value plus packed deltas (wins on
//!   sorted runs such as the edge table's `spe_from` column);
//! * **Plain** — raw little-endian u64s when packing would not help.
//!
//! Reads are vectored: [`Column::block`] decompresses a whole block into a
//! caller-provided buffer, and random point reads go through the same
//! path (decompress + index), which is what makes the §3.4 CPU profile's
//! "column store random access and decompression" share real.

/// Values per block.
pub const BLOCK: usize = 4096;

/// One encoded block.
#[derive(Debug, Clone)]
enum Encoded {
    /// Raw values.
    Plain(Vec<u64>),
    /// Frame-of-reference: `base` + `width`-bit packed offsets.
    For {
        base: u64,
        width: u8,
        len: u32,
        packed: Vec<u64>,
    },
    /// Delta: `first` + `width`-bit packed (delta - min_delta) values,
    /// only for non-decreasing runs (min_delta folded into base).
    Delta {
        first: u64,
        min_delta: u64,
        width: u8,
        len: u32,
        packed: Vec<u64>,
    },
}

/// A compressed append-only u64 column.
#[derive(Debug, Clone, Default)]
pub struct Column {
    blocks: Vec<Encoded>,
    /// Spill buffer of not-yet-encoded values.
    tail: Vec<u64>,
    len: usize,
}

fn bits_for(max: u64) -> u8 {
    (64 - max.leading_zeros()).max(1) as u8
}

fn pack(values: impl Iterator<Item = u64>, width: u8, len: usize) -> Vec<u64> {
    let total_bits = width as usize * len;
    let mut packed = vec![0u64; total_bits.div_ceil(64)];
    let mut bit = 0usize;
    for v in values {
        let word = bit / 64;
        let offset = bit % 64;
        packed[word] |= v << offset;
        let spill = 64 - offset;
        if (width as usize) > spill {
            packed[word + 1] |= v >> spill;
        }
        bit += width as usize;
    }
    packed
}

fn unpack(packed: &[u64], width: u8, len: usize, out: &mut Vec<u64>) {
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let mut bit = 0usize;
    for _ in 0..len {
        let word = bit / 64;
        let offset = bit % 64;
        let mut v = packed[word] >> offset;
        let spill = 64 - offset;
        if (width as usize) > spill {
            v |= packed[word + 1] << spill;
        }
        out.push(v & mask);
        bit += width as usize;
    }
}

impl Encoded {
    fn from_values(values: &[u64]) -> Encoded {
        let len = values.len();
        debug_assert!(len > 0);
        // Panic-free min/max: blocks are non-empty by construction, and the
        // saturating_sub below keeps the (unreachable) empty case harmless.
        let (min, max) = values
            .iter()
            .fold((u64::MAX, 0u64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let for_width = bits_for(max.saturating_sub(min));
        let for_bits = for_width as usize * len;
        // Delta applies only to non-decreasing runs.
        let sorted = values.windows(2).all(|w| w[0] <= w[1]);
        let (delta_width, delta_min) = if sorted && len > 1 {
            let mut min_d = u64::MAX;
            let mut max_d = 0u64;
            for w in values.windows(2) {
                let d = w[1] - w[0];
                min_d = min_d.min(d);
                max_d = max_d.max(d);
            }
            (bits_for(max_d - min_d), min_d)
        } else {
            (64, 0)
        };
        let delta_bits = delta_width as usize * (len - 1);
        let plain_bits = 64 * len;
        if sorted && len > 1 && delta_bits <= for_bits && delta_bits < plain_bits {
            Encoded::Delta {
                first: values[0],
                min_delta: delta_min,
                width: delta_width,
                len: len as u32,
                packed: pack(
                    values.windows(2).map(|w| (w[1] - w[0]) - delta_min),
                    delta_width,
                    len - 1,
                ),
            }
        } else if for_bits < plain_bits {
            Encoded::For {
                base: min,
                width: for_width,
                len: len as u32,
                packed: pack(values.iter().map(|&v| v - min), for_width, len),
            }
        } else {
            Encoded::Plain(values.to_vec())
        }
    }

    fn decode(&self, out: &mut Vec<u64>) {
        out.clear();
        match self {
            Encoded::Plain(values) => out.extend_from_slice(values),
            Encoded::For {
                base,
                width,
                len,
                packed,
            } => {
                unpack(packed, *width, *len as usize, out);
                for v in out.iter_mut() {
                    *v += base;
                }
            }
            Encoded::Delta {
                first,
                min_delta,
                width,
                len,
                packed,
            } => {
                out.push(*first);
                let mut deltas = Vec::with_capacity(*len as usize - 1);
                unpack(packed, *width, *len as usize - 1, &mut deltas);
                let mut current = *first;
                for d in deltas {
                    current += d + min_delta;
                    out.push(current);
                }
            }
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Encoded::Plain(v) => v.len() * 8,
            Encoded::For { packed, .. } => packed.len() * 8 + 16,
            Encoded::Delta { packed, .. } => packed.len() * 8 + 24,
        }
    }
}

impl Column {
    /// Creates an empty column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a column from a slice.
    pub fn from_values(values: &[u64]) -> Self {
        let mut c = Self::new();
        for &v in values {
            c.push(v);
        }
        c.seal();
        c
    }

    /// Appends one value.
    pub fn push(&mut self, value: u64) {
        self.tail.push(value);
        self.len += 1;
        if self.tail.len() == BLOCK {
            let block = Encoded::from_values(&self.tail);
            self.tail.clear();
            self.blocks.push(block);
        }
    }

    /// Flushes the tail into a final (possibly short) block.
    pub fn seal(&mut self) {
        if !self.tail.is_empty() {
            let block = Encoded::from_values(&self.tail);
            self.tail.clear();
            self.blocks.push(block);
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len() + usize::from(!self.tail.is_empty())
    }

    /// Decompresses block `b` into `out` (vectored read).
    pub fn block(&self, b: usize, out: &mut Vec<u64>) {
        if b < self.blocks.len() {
            self.blocks[b].decode(out);
        } else {
            out.clear();
            out.extend_from_slice(&self.tail);
        }
    }

    /// Point read (decompress + index); prefer [`Column::block`] in loops.
    pub fn get(&self, index: usize, scratch: &mut Vec<u64>) -> u64 {
        let b = index / BLOCK;
        self.block(b, scratch);
        scratch[index % BLOCK]
    }

    /// Compressed size in bytes (tail counted raw).
    pub fn compressed_bytes(&self) -> usize {
        self.blocks.iter().map(Encoded::bytes).sum::<usize>() + self.tail.len() * 8
    }

    /// Uncompressed size in bytes.
    pub fn raw_bytes(&self) -> usize {
        self.len * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[u64]) {
        let c = Column::from_values(values);
        assert_eq!(c.len(), values.len());
        let mut out = Vec::new();
        let mut all = Vec::new();
        for b in 0..c.num_blocks() {
            c.block(b, &mut out);
            all.extend_from_slice(&out);
        }
        assert_eq!(all, values);
    }

    #[test]
    fn round_trips_various_shapes() {
        round_trip(&[]);
        round_trip(&[42]);
        round_trip(&(0..10_000).collect::<Vec<u64>>()); // Sorted → delta.
        round_trip(&(0..10_000).map(|i| i * 37 % 1000).collect::<Vec<u64>>()); // FOR.
        round_trip(
            &(0..5000u64)
                .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
                .collect::<Vec<u64>>(),
        ); // Plain-ish.
        round_trip(&vec![7u64; 9000]); // Constant.
    }

    #[test]
    fn sorted_data_compresses_well() {
        let values: Vec<u64> = (0..100_000u64).collect();
        let c = Column::from_values(&values);
        assert!(
            c.compressed_bytes() < c.raw_bytes() / 10,
            "compressed={} raw={}",
            c.compressed_bytes(),
            c.raw_bytes()
        );
    }

    #[test]
    fn small_range_data_bitpacks() {
        let values: Vec<u64> = (0..50_000).map(|i| 1_000_000 + (i % 16)).collect();
        let c = Column::from_values(&values);
        // 4 bits/value (plus headers) vs 64 bits/value raw.
        assert!(c.compressed_bytes() < c.raw_bytes() / 8);
    }

    #[test]
    fn random_data_does_not_explode() {
        let values: Vec<u64> = (0..20_000)
            .map(|i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let c = Column::from_values(&values);
        assert!(c.compressed_bytes() <= c.raw_bytes() + c.num_blocks() * 32);
    }

    #[test]
    fn point_reads() {
        let values: Vec<u64> = (0..10_000).map(|i| i * 3).collect();
        let c = Column::from_values(&values);
        let mut scratch = Vec::new();
        assert_eq!(c.get(0, &mut scratch), 0);
        assert_eq!(c.get(4095, &mut scratch), 4095 * 3);
        assert_eq!(c.get(4096, &mut scratch), 4096 * 3);
        assert_eq!(c.get(9999, &mut scratch), 9999 * 3);
    }

    #[test]
    fn unsealed_tail_is_readable() {
        let mut c = Column::new();
        c.push(1);
        c.push(2);
        let mut out = Vec::new();
        c.block(0, &mut out);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(c.num_blocks(), 1);
    }

    #[test]
    fn width_64_edge_case() {
        round_trip(&[0, u64::MAX, 1, u64::MAX - 1, 0, 5]);
    }
}
