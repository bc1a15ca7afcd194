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
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::str::SplitWhitespace;

use crate::edgelist::{Edge, EdgeListGraph, VertexId, Weight, WeightedEdge, WEIGHT_SCALE};
use crate::GraphError;

/// Writes the `.v` and `.e` files for a graph at `prefix` (i.e. produces
/// `prefix.v` and `prefix.e`).
pub fn write_graph(g: &EdgeListGraph, prefix: &Path) -> Result<(), GraphError> {
    let v_path = prefix.with_extension("v");
    let e_path = prefix.with_extension("e");
    let mut vw = BufWriter::new(File::create(&v_path)?);
    for &v in g.vertices() {
        writeln!(vw, "{v}")?;
    }
    vw.flush()?;
    let mut ew = BufWriter::new(File::create(&e_path)?);
    if g.is_weighted() {
        for (&(s, t), &w) in g.edges().iter().zip(g.weights()) {
            writeln!(ew, "{s} {t} {}", format_weight(w))?;
        }
    } else {
        for &(s, t) in g.edges() {
            writeln!(ew, "{s} {t}")?;
        }
    }
    ew.flush()?;
    Ok(())
}

/// Renders a fixed-point weight back to its decimal file form (trailing
/// fraction zeros trimmed): `1_500_000` → `"1.5"`, `2_000_000` → `"2"`.
pub fn format_weight(w: Weight) -> String {
    let int = w / WEIGHT_SCALE;
    let frac = w % WEIGHT_SCALE;
    if frac == 0 {
        return int.to_string();
    }
    let digits = format!("{frac:06}");
    format!("{int}.{}", digits.trim_end_matches('0'))
}

/// Parses a decimal weight token to fixed point, exactly: an integer part
/// and an optional fraction of at most six digits. No exponents, signs, or
/// floats are involved, so the result is bit-reproducible. Returns `None`
/// for anything else (negative, empty, overlong fraction, non-digits).
pub fn parse_weight(token: &str) -> Option<Weight> {
    let (int_part, frac_part) = match token.split_once('.') {
        Some((i, f)) => (i, f),
        None => (token, ""),
    };
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
    read_records(path, |parts| parts.next()?.parse().ok())
}

/// Reads a `.e` edge file: `src dst [weight]` per non-empty line;
/// `#`-prefixed lines are comments. Weights are accepted and discarded.
pub fn read_edge_file(path: &Path) -> Result<Vec<Edge>, GraphError> {
    read_records(path, |parts| {
        Some((parts.next()?.parse().ok()?, parts.next()?.parse().ok()?))
    })
}

/// Reads a weighted `.e` edge file: `src dst weight` per non-empty line;
/// `#`-prefixed lines are comments. Unlike [`read_edge_file`], the weight
/// is mandatory, must be a non-negative decimal with at most six fraction
/// digits, and is parsed exactly to fixed point ([`WEIGHT_SCALE`]) — a
/// missing or negative weight is a parse error with file/line context.
pub fn read_weighted_edge_file(path: &Path) -> Result<Vec<WeightedEdge>, GraphError> {
    read_records(path, |parts| {
        Some((
            parts.next()?.parse().ok()?,
            parts.next()?.parse().ok()?,
            parse_weight(parts.next()?)?,
        ))
    })
}

/// The line loop of the three readers: reads `path` line by line into one
/// reused buffer and turns every data line into a record with `parse`,
/// which gets the line's whitespace-separated fields. A UTF-8 byte-order
/// mark on line 1 is stripped (spreadsheet and Windows-editor exports
/// prepend one); blank and `#`-prefixed lines are skipped; `None` from
/// `parse` is a [`GraphError::Parse`] naming the 1-based file line.
fn read_records<T>(
    path: &Path,
    parse: impl Fn(&mut SplitWhitespace<'_>) -> Option<T>,
) -> Result<Vec<T>, GraphError> {
    let mut reader = BufReader::new(File::open(path)?);
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

    #[test]
    fn weight_formatting_round_trips() {
        for w in [0u64, 1, 500_000, 1_000_000, 2_250_000, 123_456_789] {
            assert_eq!(parse_weight(&format_weight(w)), Some(w), "{w}");
        }
        assert_eq!(format_weight(1_500_000), "1.5");
        assert_eq!(format_weight(2_000_000), "2");
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
}
