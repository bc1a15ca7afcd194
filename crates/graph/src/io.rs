//! Graphalytics dataset file format.
//!
//! Graphalytics datasets are stored as two plain-text files:
//!
//! * `<name>.v` — one vertex id per line;
//! * `<name>.e` — one edge per line as `source<space>target`, optionally
//!   followed by a weight (ignored by the unweighted kernels).
//!
//! The harness's dataset repository (`core::datasets`) reads and writes this
//! format; generators produce it.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::path::Path;

use crate::edgelist::{Edge, EdgeListGraph, VertexId, Weight, WeightedEdge, WEIGHT_SCALE};
use crate::GraphError;

/// Writes the `.v` and `.e` files for a graph at `prefix` (i.e. produces
/// `prefix.v` and `prefix.e`).
pub fn write_graph(g: &EdgeListGraph, prefix: &Path) -> Result<(), GraphError> {
    let mut line = Vec::with_capacity(64);
    let mut v = BufWriter::new(File::create(prefix.with_extension("v"))?);
    for &id in g.vertices() {
        line.clear();
        push_u64(&mut line, id);
        line.push(b'\n');
        v.write_all(&line)?;
    }
    v.flush()?;
    let mut e = BufWriter::new(File::create(prefix.with_extension("e"))?);
    let weighted = g.is_weighted();
    for (&(s, t), &w) in g.edges().iter().zip(g.weights()) {
        line.clear();
        push_u64(&mut line, s);
        line.push(b' ');
        push_u64(&mut line, t);
        if weighted {
            line.push(b' ');
            push_weight(&mut line, w);
        }
        line.push(b'\n');
        e.write_all(&line)?;
    }
    e.flush()?;
    Ok(())
}

/// Appends the decimal digits of `v` to `out`, as `write!(out, "{v}")`
/// would.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends a fixed-point weight in its file form, trailing fraction zeros
/// trimmed: `1_500_000` → `1.5`, `2_000_000` → `2`, `1` → `0.000001`.
/// [`parse_weight`] reads it back exactly.
fn push_weight(out: &mut Vec<u8>, w: Weight) {
    push_u64(out, w / WEIGHT_SCALE);
    let mut frac = w % WEIGHT_SCALE;
    if frac == 0 {
        return;
    }
    let mut width = 6;
    while frac.is_multiple_of(10) {
        frac /= 10;
        width -= 1;
    }
    out.push(b'.');
    // The fraction's leading zeros, then its digits.
    out.resize(out.len() + width - (frac.ilog10() + 1) as usize, b'0');
    push_u64(out, frac);
}

/// Parses a decimal weight token to fixed point, exactly: an integer part
/// and an optional fraction of at most six digits. No exponents, signs, or
/// floats are involved, so the result is bit-reproducible. Returns `None`
/// for anything else (negative, empty, overlong fraction, non-digits).
pub fn parse_weight(token: &str) -> Option<Weight> {
    weight_field(token.as_bytes())
}

/// [`parse_weight`] over a field's bytes.
fn weight_field(token: &[u8]) -> Option<Weight> {
    let (int_part, frac_part) = match token.iter().position(|&b| b == b'.') {
        Some(dot) => (&token[..dot], &token[dot + 1..]),
        None => (token, &[][..]),
    };
    if (int_part.is_empty() && frac_part.is_empty()) || frac_part.len() > 6 {
        return None;
    }
    let mut frac: Weight = 0;
    for i in 0..6 {
        let digit = match frac_part.get(i) {
            Some(b) if b.is_ascii_digit() => b - b'0',
            Some(_) => return None,
            None => 0,
        };
        frac = frac * 10 + digit as Weight;
    }
    let int = match int_part {
        [] => 0,
        digits => parse_digits(digits)?,
    };
    int.checked_mul(WEIGHT_SCALE)?.checked_add(frac)
}

/// Parses a vertex id as `u64::from_str` does: one optional `+`, then at
/// least one decimal digit, with no overflow.
fn parse_id(token: &[u8]) -> Option<VertexId> {
    parse_digits(token.strip_prefix(b"+").unwrap_or(token))
}

/// The value of a non-empty run of decimal digits, if it fits a `u64`.
fn parse_digits(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |acc, &b| {
        if !b.is_ascii_digit() {
            return None;
        }
        acc.checked_mul(10)?.checked_add((b - b'0') as u64)
    })
}

/// Reads a graph stored by [`write_graph`] (or by the original Graphalytics
/// toolchain) from `prefix.v` / `prefix.e`.
pub fn read_graph(prefix: &Path, directed: bool) -> Result<EdgeListGraph, GraphError> {
    let vertices = read_vertex_file(&prefix.with_extension("v"))?;
    let edges = read_edge_file(&prefix.with_extension("e"))?;
    Ok(EdgeListGraph::new(vertices, edges, directed))
}

/// Reads a weighted graph from `prefix.v` / `prefix.e`; every edge line
/// must carry a weight (see [`read_weighted_edge_file`]).
pub fn read_weighted_graph(prefix: &Path, directed: bool) -> Result<EdgeListGraph, GraphError> {
    let vertices = read_vertex_file(&prefix.with_extension("v"))?;
    let edges = read_weighted_edge_file(&prefix.with_extension("e"))?;
    Ok(EdgeListGraph::new_weighted(vertices, edges, directed))
}

/// Reads a `.v` vertex file: one decimal vertex id per non-empty line;
/// `#`-prefixed lines are comments.
pub fn read_vertex_file(path: &Path) -> Result<Vec<VertexId>, GraphError> {
    read_records(path, |fields| parse_id(fields.next()?))
}

/// Reads a `.e` edge file: `src dst [weight]` per non-empty line;
/// `#`-prefixed lines are comments. Weights are accepted and discarded.
pub fn read_edge_file(path: &Path) -> Result<Vec<Edge>, GraphError> {
    read_records(path, |fields| {
        Some((parse_id(fields.next()?)?, parse_id(fields.next()?)?))
    })
}

/// Reads a weighted `.e` edge file: `src dst weight` per non-empty line;
/// `#`-prefixed lines are comments. Unlike [`read_edge_file`], the weight
/// is mandatory, must be a non-negative decimal with at most six fraction
/// digits, and is parsed exactly to fixed point ([`WEIGHT_SCALE`]) — a
/// missing or negative weight is a parse error with file/line context.
pub fn read_weighted_edge_file(path: &Path) -> Result<Vec<WeightedEdge>, GraphError> {
    read_records(path, |fields| {
        Some((
            parse_id(fields.next()?)?,
            parse_id(fields.next()?)?,
            weight_field(fields.next()?)?,
        ))
    })
}

/// The whitespace-separated fields of a UTF-8 line, as
/// `str::split_whitespace` finds them (Unicode whitespace), scanned byte by
/// byte; a character is decoded only at a non-ASCII byte.
struct Fields<'a> {
    rest: &'a [u8],
}

impl<'a> Fields<'a> {
    /// The byte length of the character that starts `rest`, and whether it
    /// is whitespace; the callers test ASCII bytes themselves.
    fn lead(rest: &[u8]) -> (usize, bool) {
        let len = match rest[0] {
            0..=0x7f => 1,
            0xf0.. => 4,
            0xe0.. => 3,
            _ => 2,
        };
        let c = std::str::from_utf8(&rest[..len.min(rest.len())])
            .ok()
            .and_then(|c| c.chars().next());
        (len, c.is_some_and(char::is_whitespace))
    }

    /// Drops the whitespace at the front; true if a field follows.
    fn skip_whitespace(&mut self) -> bool {
        while let Some(&b) = self.rest.first() {
            match b {
                b' ' | b'\t'..=b'\r' => self.rest = &self.rest[1..],
                0..=0x7f => return true,
                _ => match Self::lead(self.rest) {
                    (len, true) => self.rest = &self.rest[len..],
                    _ => return true,
                },
            }
        }
        false
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if !self.skip_whitespace() {
            return None;
        }
        let mut end = 0;
        while let Some(&b) = self.rest.get(end) {
            match b {
                b' ' | b'\t'..=b'\r' => break,
                0..=0x7f => end += 1,
                _ => match Self::lead(&self.rest[end..]) {
                    (_, true) => break,
                    (len, false) => end += len,
                },
            }
        }
        let (field, rest) = self.rest.split_at(end);
        self.rest = rest;
        Some(field)
    }
}

/// The line loop of the three readers: reads `path` line by line into one
/// reused byte buffer and turns every data line into a record with `parse`,
/// which gets the line's whitespace-separated fields. A UTF-8 byte-order
/// mark on line 1 is stripped (spreadsheet and Windows-editor exports
/// prepend one); blank and `#`-prefixed lines are skipped; `None` from
/// `parse` is a [`GraphError::Parse`] naming the 1-based file line and its
/// first 60 characters, trimmed. A line that is not UTF-8 is an
/// `InvalidData` I/O error, raised when the reader reaches that line.
fn read_records<T>(
    path: &Path,
    parse: impl Fn(&mut Fields<'_>) -> Option<T>,
) -> Result<Vec<T>, GraphError> {
    let mut reader = BufReader::with_capacity(1 << 16, File::open(path)?);
    let mut records = Vec::new();
    let mut buf = Vec::new();
    for lineno in 1.. {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
        let line = match lineno {
            1 => line.strip_prefix("\u{feff}".as_bytes()).unwrap_or(line),
            _ => line,
        };
        if !line.is_ascii() && std::str::from_utf8(line).is_err() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
            .into());
        }
        let mut fields = Fields { rest: line };
        if !fields.skip_whitespace() || fields.rest[0] == b'#' {
            continue;
        }
        let record = parse(&mut fields).ok_or_else(|| GraphError::Parse {
            file: path.display().to_string(),
            line: lineno,
            content: String::from_utf8_lossy(line)
                .trim()
                .chars()
                .take(60)
                .collect(),
        })?;
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> crate::ScratchDir {
        crate::ScratchDir::new(None, &format!("gx-io-{name}")).unwrap()
    }

    #[test]
    fn round_trip_undirected() {
        let dir = tmpdir("rt");
        let g = EdgeListGraph::new(vec![7], vec![(0, 1), (1, 2), (0, 2)], false);
        let prefix = dir.path().join("g1");
        write_graph(&g, &prefix).unwrap();
        let back = read_graph(&prefix, false).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn round_trip_directed() {
        let dir = tmpdir("rtd");
        let g = EdgeListGraph::directed_from_edges(vec![(1, 0), (0, 1), (2, 0)]);
        let prefix = dir.path().join("g2");
        write_graph(&g, &prefix).unwrap();
        let back = read_graph(&prefix, true).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn parses_comments_blanks_and_weights() {
        let dir = tmpdir("cmt");
        let epath = dir.path().join("w.e");
        std::fs::write(&epath, "# header\n\n0 1 0.5\n 1 2 \n").unwrap();
        let edges = read_edge_file(&epath).unwrap();
        assert_eq!(edges, vec![(0, 1), (1, 2)]);
        let vpath = dir.path().join("w.v");
        std::fs::write(&vpath, "# ids\n3\n\n4\n").unwrap();
        assert_eq!(read_vertex_file(&vpath).unwrap(), vec![3, 4]);
    }

    #[test]
    fn reports_parse_error_with_location() {
        let dir = tmpdir("err");
        let epath = dir.path().join("bad.e");
        std::fs::write(&epath, "0 1\nnot an edge\n").unwrap();
        let err = read_edge_file(&epath).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_vertex_file(Path::new("/nonexistent/xyz.v")).unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
    }

    #[test]
    fn weight_parsing_is_exact_fixed_point() {
        assert_eq!(parse_weight("1"), Some(WEIGHT_SCALE));
        assert_eq!(parse_weight("0.5"), Some(500_000));
        assert_eq!(parse_weight("2.25"), Some(2_250_000));
        assert_eq!(parse_weight("0.000001"), Some(1));
        assert_eq!(parse_weight(".5"), Some(500_000));
        assert_eq!(parse_weight("3."), Some(3_000_000));
        assert_eq!(parse_weight("0"), Some(0));
        // Rejected: signs, exponents, overlong fractions, junk.
        assert_eq!(parse_weight("-1"), None);
        assert_eq!(parse_weight("+1"), None);
        assert_eq!(parse_weight("1e3"), None);
        assert_eq!(parse_weight("0.0000001"), None);
        assert_eq!(parse_weight(""), None);
        assert_eq!(parse_weight("."), None);
        assert_eq!(parse_weight("abc"), None);
    }

    fn formatted(push: fn(&mut Vec<u8>, u64), v: u64) -> String {
        let mut out = b"x".to_vec();
        push(&mut out, v);
        String::from_utf8(out).unwrap()
    }

    /// `format_weight` as it was: the `fmt` form [`push_weight`] must match.
    fn oracle_format_weight(w: Weight) -> String {
        let int = w / WEIGHT_SCALE;
        let frac = w % WEIGHT_SCALE;
        if frac == 0 {
            return int.to_string();
        }
        let digits = format!("{frac:06}");
        format!("{int}.{}", digits.trim_end_matches('0'))
    }

    #[test]
    fn weight_formatting_round_trips() {
        for w in [0u64, 1, 500_000, 1_000_000, 2_250_000, 123_456_789] {
            let text = formatted(push_weight, w);
            assert_eq!(parse_weight(&text[1..]), Some(w), "{w}");
        }
        assert_eq!(formatted(push_weight, 1_500_000), "x1.5");
        assert_eq!(formatted(push_weight, 2_000_000), "x2");
    }

    #[test]
    fn decimal_codec_matches_fmt() {
        let mut rng = crate::rng::Xoshiro256::new(17);
        let mut values: Vec<u64> = vec![0, 9, 10, 99, 100, 101, u64::MAX, u64::MAX - 1];
        values.extend((1..20).flat_map(|e| {
            let p = 10u64.pow(e);
            [p - 1, p, p + 1]
        }));
        values.extend((0..2_000).map(|i| rng.next_u64() >> (i % 64)));
        for v in values {
            assert_eq!(formatted(push_u64, v), format!("x{v}"));
            assert_eq!(
                formatted(push_weight, v),
                format!("x{}", oracle_format_weight(v))
            );
        }
    }

    #[test]
    fn weighted_graph_round_trips() {
        let dir = tmpdir("wrt");
        let g = EdgeListGraph::new_weighted(
            vec![9],
            vec![(0, 1, 500_000), (1, 2, 2_250_000), (0, 2, WEIGHT_SCALE)],
            false,
        );
        let prefix = dir.path().join("wg");
        write_graph(&g, &prefix).unwrap();
        assert_eq!(read_weighted_graph(&prefix, false).unwrap(), g);
        // The unweighted reader still accepts the same file, dropping
        // weights.
        let unweighted = read_graph(&prefix, false).unwrap();
        assert_eq!(unweighted.edges(), g.edges());
        assert!(!unweighted.is_weighted());
    }

    #[test]
    fn weighted_reader_requires_a_weight() {
        let dir = tmpdir("wreq");
        let epath = dir.path().join("m.e");
        std::fs::write(&epath, "0 1 0.5\n1 2\n").unwrap();
        let err = read_weighted_edge_file(&epath).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// The line loop the readers had before they parsed bytes: one `String`
    /// per `read_line`, `str::trim` and `SplitWhitespace`.
    fn oracle_read_records<T>(
        path: &Path,
        parse: impl Fn(&mut std::str::SplitWhitespace<'_>) -> Option<T>,
    ) -> Result<Vec<T>, GraphError> {
        let mut reader = std::io::BufReader::new(File::open(path)?);
        let mut records = Vec::new();
        let mut buf = String::new();
        for lineno in 1.. {
            buf.clear();
            if reader.read_line(&mut buf)? == 0 {
                break;
            }
            let line = match lineno {
                1 => buf.strip_prefix('\u{feff}').unwrap_or(&buf),
                _ => &buf,
            }
            .trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let record = parse(&mut line.split_whitespace()).ok_or_else(|| GraphError::Parse {
                file: path.display().to_string(),
                line: lineno,
                content: line.chars().take(60).collect(),
            })?;
            records.push(record);
        }
        Ok(records)
    }

    /// `parse_weight` as it was, over `str::split_once` and `str::parse`.
    fn oracle_parse_weight(token: &str) -> Option<Weight> {
        let (int_part, frac_part) = token.split_once('.').unwrap_or((token, ""));
        if int_part.is_empty() && frac_part.is_empty() {
            return None;
        }
        let digits_only = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        if !int_part.is_empty() && !digits_only(int_part) {
            return None;
        }
        if !frac_part.is_empty() && !digits_only(frac_part) {
            return None;
        }
        if frac_part.len() > 6 {
            return None;
        }
        let int: Weight = if int_part.is_empty() {
            0
        } else {
            int_part.parse().ok()?
        };
        let mut frac: Weight = 0;
        if !frac_part.is_empty() {
            frac = frac_part.parse().ok()?;
            for _ in frac_part.len()..6 {
                frac *= 10;
            }
        }
        int.checked_mul(WEIGHT_SCALE)?.checked_add(frac)
    }

    /// What a reader returned, in a form two readers' results compare in:
    /// the records, the whole `Parse` error, or an I/O error's kind and text.
    fn outcome<T: std::fmt::Debug>(result: Result<Vec<T>, GraphError>) -> String {
        match result {
            Ok(records) => format!("ok {records:?}"),
            Err(GraphError::Io(e)) => format!("io {:?} {e}", e.kind()),
            Err(e) => format!("{e:?}"),
        }
    }

    /// A random file of hostile lines: numbers with signs, leading zeros
    /// and `2^64` overflow, weights, words, extra and missing fields,
    /// ASCII and Unicode whitespace, BOMs, CRLF, NUL and non-UTF-8 bytes,
    /// comments, blank lines and the odd 10 or 70 kB line.
    fn hostile_file(rng: &mut crate::rng::Xoshiro256) -> Vec<u8> {
        const TOKENS: &[&str] = &[
            "0",
            "1",
            "7",
            "42",
            "007",
            "+5",
            "++5",
            "+",
            "-3",
            "-0",
            "0.5",
            ".5",
            "3.",
            ".",
            "1.1234567",
            "2.000000",
            "1e3",
            "x",
            "#c",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
            "\u{feff}",
            "é",
            "1\u{a0}2",
        ];
        const SPACES: &[&str] = &[
            " ", "\t", "  ", "\u{a0}", "\u{3000}", "\x0b", "\x0c", "\u{85}",
        ];
        const HOSTILE: &[&[u8]] = &[b"\0", b"\xff", b"\xc3", b"\xe2\x80", b"\r"];
        let pick = |rng: &mut crate::rng::Xoshiro256, n: usize| rng.next_bounded(n as u64) as usize;
        let mut file = Vec::new();
        if rng.next_bounded(4) == 0 {
            file.extend_from_slice("\u{feff}".as_bytes());
        }
        for _ in 0..rng.next_bounded(30) {
            let mut line = Vec::new();
            match rng.next_bounded(12) {
                0 => {}
                1 => line.extend_from_slice(b"# a comment 1 2"),
                2 => {
                    // Now and then longer than the reader's 64 KiB buffer.
                    let len = [10_000, 10_000, 70_000][pick(rng, 3)];
                    let id = rng.next_u64().to_string();
                    while line.len() < len {
                        line.extend_from_slice(id.as_bytes());
                        line.push(b' ');
                    }
                }
                _ => {
                    for i in 0..rng.next_bounded(6) {
                        if i > 0 || rng.next_bounded(4) == 0 {
                            line.extend_from_slice(SPACES[pick(rng, SPACES.len())].as_bytes());
                        }
                        match rng.next_bounded(3) {
                            0 => line.extend_from_slice(TOKENS[pick(rng, TOKENS.len())].as_bytes()),
                            _ => line
                                .extend_from_slice(rng.next_bounded(1_000).to_string().as_bytes()),
                        }
                    }
                }
            }
            if rng.next_bounded(30) == 0 {
                let at = pick(rng, line.len() + 1);
                let bytes = HOSTILE[pick(rng, HOSTILE.len())];
                line.splice(at..at, bytes.iter().copied());
            }
            file.extend_from_slice(&line);
            file.extend_from_slice(if rng.next_bounded(3) == 0 {
                b"\r\n"
            } else {
                b"\n"
            });
        }
        if rng.next_bounded(3) == 0 {
            file.pop();
        }
        file
    }

    #[test]
    fn readers_match_the_string_oracle_on_hostile_lines() {
        let dir = tmpdir("oracle");
        let path = dir.path().join("g.txt");
        let mut rng = crate::rng::Xoshiro256::new(0xB17E);
        let mut seen = std::collections::BTreeMap::new();
        for case in 0..3_000 {
            std::fs::write(&path, hostile_file(&mut rng)).unwrap();
            let checks = [
                (
                    outcome(read_vertex_file(&path)),
                    outcome(oracle_read_records(&path, |p| {
                        p.next()?.parse::<u64>().ok()
                    })),
                ),
                (
                    outcome(read_edge_file(&path)),
                    outcome(oracle_read_records(&path, |p| {
                        Some((
                            p.next()?.parse::<u64>().ok()?,
                            p.next()?.parse::<u64>().ok()?,
                        ))
                    })),
                ),
                (
                    outcome(read_weighted_edge_file(&path)),
                    outcome(oracle_read_records(&path, |p| {
                        Some((
                            p.next()?.parse::<u64>().ok()?,
                            p.next()?.parse::<u64>().ok()?,
                            oracle_parse_weight(p.next()?)?,
                        ))
                    })),
                ),
            ];
            for (got, want) in checks {
                assert_eq!(
                    got,
                    want,
                    "case {case}: {:?}",
                    std::fs::read(&path).unwrap()
                );
                *seen
                    .entry(want.split(' ').next().unwrap().to_string())
                    .or_insert(0) += 1;
            }
        }
        // Every kind of outcome came up often enough to mean something.
        for kind in ["ok", "io", "Parse"] {
            assert!(seen.get(kind).copied().unwrap_or(0) > 100, "{seen:?}");
        }
    }

    #[test]
    fn weight_parsing_matches_the_string_oracle() {
        let mut rng = crate::rng::Xoshiro256::new(5);
        let alphabet = b"0123456789..+-e ";
        for _ in 0..20_000 {
            let len = rng.next_bounded(24) as usize;
            let token: String = (0..len)
                .map(|_| alphabet[rng.next_bounded(alphabet.len() as u64) as usize] as char)
                .collect();
            assert_eq!(
                parse_weight(&token),
                oracle_parse_weight(&token),
                "{token:?}"
            );
        }
    }
}
