//! Golden-file tests for the Graphalytics `.v`/`.e` dataset format.
//!
//! Files in the wild are messier than the writer's output: CRLF line
//! endings (Windows checkouts), UTF-8 BOMs (spreadsheet exports), comment
//! headers, trailing blank lines, and vertex ids listed out of order. The
//! reader must accept all of them and canonicalize to the same graph, and
//! the writer's output must be byte-stable under a read → write round trip.

use graphalytics_graph::io::{
    read_edge_file, read_graph, read_vertex_file, read_weighted_edge_file, read_weighted_graph,
    write_graph,
};
use graphalytics_graph::{EdgeListGraph, GraphError, ScratchDir, WEIGHT_SCALE};
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> ScratchDir {
    ScratchDir::new(None, &format!("gx-io-golden-{name}")).expect("create scratch dir")
}

/// The canonical graph every variant below must parse into.
fn golden_graph() -> EdgeListGraph {
    EdgeListGraph::new(vec![0, 1, 2, 3, 7], vec![(0, 1), (1, 2), (2, 3)], false)
}

fn write_pair(dir: &Path, name: &str, v_text: &str, e_text: &str) -> PathBuf {
    let prefix = dir.join(name);
    std::fs::write(prefix.with_extension("v"), v_text).expect("write .v");
    std::fs::write(prefix.with_extension("e"), e_text).expect("write .e");
    prefix
}

#[test]
fn plain_lf_files_parse() {
    let dir = scratch("lf");
    let prefix = write_pair(dir.path(), "g", "0\n1\n2\n3\n7\n", "0 1\n1 2\n2 3\n");
    assert_eq!(read_graph(&prefix, false).unwrap(), golden_graph());
}

#[test]
fn crlf_line_endings_parse_identically() {
    let dir = scratch("crlf");
    let prefix = write_pair(
        dir.path(),
        "g",
        "0\r\n1\r\n2\r\n3\r\n7\r\n",
        "0 1\r\n1 2\r\n2 3\r\n",
    );
    assert_eq!(read_graph(&prefix, false).unwrap(), golden_graph());
}

#[test]
fn trailing_blank_lines_and_whitespace_are_ignored() {
    let dir = scratch("blanks");
    let prefix = write_pair(
        dir.path(),
        "g",
        "0\n1\n2\n3\n7\n\n\n   \n\t\n",
        "0 1\n1 2\n2 3\n\n  \n\n",
    );
    assert_eq!(read_graph(&prefix, false).unwrap(), golden_graph());
}

#[test]
fn comment_lines_are_skipped_anywhere() {
    let dir = scratch("comments");
    let prefix = write_pair(
        dir.path(),
        "g",
        "# vertex ids\n0\n1\n# midway note\n2\n3\n7\n# eof\n",
        "# src dst\n0 1\n1 2\n# more below\n2 3\n",
    );
    assert_eq!(read_graph(&prefix, false).unwrap(), golden_graph());
}

#[test]
fn out_of_order_vertex_ids_canonicalize() {
    let dir = scratch("order");
    let prefix = write_pair(dir.path(), "g", "7\n3\n0\n2\n1\n", "2 3\n0 1\n1 2\n");
    assert_eq!(read_graph(&prefix, false).unwrap(), golden_graph());
}

#[test]
fn utf8_bom_is_stripped() {
    let dir = scratch("bom");
    let prefix = write_pair(
        dir.path(),
        "g",
        "\u{feff}0\n1\n2\n3\n7\n",
        "\u{feff}0 1\n1 2\n2 3\n",
    );
    assert_eq!(read_graph(&prefix, false).unwrap(), golden_graph());
}

#[test]
fn bom_on_a_comment_line_still_skips_the_comment() {
    let dir = scratch("bom-comment");
    let vpath = dir.path().join("g.v");
    std::fs::write(&vpath, "\u{feff}# header\n5\n").expect("write");
    assert_eq!(read_vertex_file(&vpath).unwrap(), vec![5]);
}

#[test]
fn weights_are_accepted_and_discarded() {
    let dir = scratch("weights");
    let epath = dir.path().join("g.e");
    std::fs::write(&epath, "0 1 0.25\n1 2 3.5\n2 3 1\n").expect("write");
    assert_eq!(
        read_edge_file(&epath).unwrap(),
        vec![(0, 1), (1, 2), (2, 3)]
    );
}

#[test]
fn writer_output_is_the_golden_byte_form() {
    let dir = scratch("golden-bytes");
    let prefix = dir.path().join("g");
    write_graph(&golden_graph(), &prefix).unwrap();
    assert_eq!(
        std::fs::read_to_string(prefix.with_extension("v")).unwrap(),
        "0\n1\n2\n3\n7\n"
    );
    assert_eq!(
        std::fs::read_to_string(prefix.with_extension("e")).unwrap(),
        "0 1\n1 2\n2 3\n"
    );
}

#[test]
fn read_write_round_trip_is_byte_stable() {
    // Reading any messy variant and writing it back must produce the
    // canonical byte form; writing that again is a fixpoint.
    let dir = scratch("fixpoint");
    let messy = write_pair(
        dir.path(),
        "messy",
        "\u{feff}# ids\n7\r\n3\r\n0\n2\n1\n\n",
        "# edges\n2 3 9.0\r\n0 1\n1 2\r\n\n",
    );
    let g = read_graph(&messy, false).unwrap();
    let clean = dir.path().join("clean");
    write_graph(&g, &clean).unwrap();
    let reread = read_graph(&clean, false).unwrap();
    assert_eq!(reread, g);
    let clean2 = dir.path().join("clean2");
    write_graph(&reread, &clean2).unwrap();
    assert_eq!(
        std::fs::read(clean.with_extension("v")).unwrap(),
        std::fs::read(clean2.with_extension("v")).unwrap()
    );
    assert_eq!(
        std::fs::read(clean.with_extension("e")).unwrap(),
        std::fs::read(clean2.with_extension("e")).unwrap()
    );
}

/// The canonical weighted graph the weighted variants below parse into.
fn weighted_golden_graph() -> EdgeListGraph {
    EdgeListGraph::new_weighted(
        vec![0, 1, 2, 3, 7],
        vec![
            (0, 1, 2 * WEIGHT_SCALE),
            (1, 2, WEIGHT_SCALE / 2),
            (2, 3, WEIGHT_SCALE + WEIGHT_SCALE / 2),
        ],
        false,
    )
}

#[test]
fn weighted_lf_files_parse_to_exact_fixed_point() {
    let dir = scratch("w-lf");
    let prefix = write_pair(
        dir.path(),
        "g",
        "0\n1\n2\n3\n7\n",
        "0 1 2\n1 2 0.5\n2 3 1.5\n",
    );
    assert_eq!(
        read_weighted_graph(&prefix, false).unwrap(),
        weighted_golden_graph()
    );
}

#[test]
fn weighted_crlf_bom_and_comments_parse_identically() {
    let dir = scratch("w-messy");
    let prefix = write_pair(
        dir.path(),
        "g",
        "\u{feff}# ids\n0\r\n1\r\n2\n3\n7\n",
        "\u{feff}# src dst w\n0 1 2.0\r\n1 2 0.500000\r\n2 3 1.5\n\n",
    );
    assert_eq!(
        read_weighted_graph(&prefix, false).unwrap(),
        weighted_golden_graph()
    );
}

#[test]
fn missing_weight_is_a_parse_error_with_line_context() {
    let dir = scratch("w-missing");
    let epath = dir.path().join("g.e");
    std::fs::write(&epath, "0 1 2\n1 2\n2 3 1.5\n").expect("write");
    match read_weighted_edge_file(&epath).unwrap_err() {
        GraphError::Parse { line, content, .. } => {
            assert_eq!(line, 2);
            assert_eq!(content, "1 2");
        }
        other => panic!("expected Parse error, got {other:?}"),
    }
}

#[test]
fn negative_and_malformed_weights_are_rejected() {
    let dir = scratch("w-bad");
    for (i, bad) in ["-1", "-0.5", "1e3", "0.1234567", "nan"].iter().enumerate() {
        let epath = dir.path().join(format!("g{i}.e"));
        std::fs::write(&epath, format!("0 1 {bad}\n")).expect("write");
        match read_weighted_edge_file(&epath).unwrap_err() {
            GraphError::Parse { line, .. } => assert_eq!(line, 1, "weight {bad:?}"),
            other => panic!("weight {bad:?}: expected Parse error, got {other:?}"),
        }
    }
}

#[test]
fn duplicate_weighted_edges_keep_the_minimum_weight() {
    let dir = scratch("w-dup");
    // The same undirected edge three times (once reversed) with different
    // weights; canonicalization keeps one arc with the minimum.
    let prefix = write_pair(dir.path(), "g", "0\n1\n", "0 1 3\n1 0 1.25\n0 1 2\n");
    let g = read_weighted_graph(&prefix, false).unwrap();
    assert_eq!(g.edges(), &[(0, 1)]);
    assert_eq!(g.weights(), &[WEIGHT_SCALE + WEIGHT_SCALE / 4]);
}

#[test]
fn weighted_read_write_round_trip_is_byte_stable() {
    let dir = scratch("w-fixpoint");
    let g = weighted_golden_graph();
    let clean = dir.path().join("clean");
    write_graph(&g, &clean).unwrap();
    assert_eq!(
        std::fs::read_to_string(clean.with_extension("e")).unwrap(),
        "0 1 2\n1 2 0.5\n2 3 1.5\n"
    );
    let reread = read_weighted_graph(&clean, false).unwrap();
    assert_eq!(reread, g);
    let clean2 = dir.path().join("clean2");
    write_graph(&reread, &clean2).unwrap();
    assert_eq!(
        std::fs::read(clean.with_extension("e")).unwrap(),
        std::fs::read(clean2.with_extension("e")).unwrap()
    );
}

#[test]
fn directed_graphs_round_trip_with_orientation() {
    let dir = scratch("directed");
    let g = EdgeListGraph::directed_from_edges(vec![(1, 0), (0, 1), (2, 0)]);
    let prefix = dir.path().join("g");
    write_graph(&g, &prefix).unwrap();
    assert_eq!(read_graph(&prefix, true).unwrap(), g);
}

/// A malformed line after every kind of line the reader skips or rewrites
/// (BOM, comment, blank, CRLF): its error names its 1-based line in the
/// file, counting the skipped lines too.
#[test]
fn malformed_line_after_skipped_lines_reports_its_file_line() {
    let dir = scratch("lineno");
    let vpath = dir.path().join("g.v");
    std::fs::write(&vpath, "\u{feff}# ids\r\n\r\n0\r\n1\r\nx7\r\n3\n").expect("write");
    match read_vertex_file(&vpath).unwrap_err() {
        GraphError::Parse { line, content, .. } => {
            assert_eq!(line, 5);
            assert_eq!(content, "x7");
        }
        other => panic!("expected Parse error, got {other:?}"),
    }
    let epath = dir.path().join("g.e");
    std::fs::write(
        &epath,
        "\u{feff}# src dst\r\n\r\n0 1\r\n1 2\r\n2 three\r\n3 4\n",
    )
    .expect("write");
    match read_edge_file(&epath).unwrap_err() {
        GraphError::Parse { line, content, .. } => {
            assert_eq!(line, 5);
            assert_eq!(content, "2 three");
        }
        other => panic!("expected Parse error, got {other:?}"),
    }
}

/// A byte that is not UTF-8 is an I/O error of kind `InvalidData` from
/// every reader, not a panic and not a silently skipped line.
#[test]
fn invalid_utf8_is_an_error_not_a_panic() {
    let dir = scratch("utf8");
    let cases: [(&str, &[u8]); 3] = [
        ("g.v", b"0\n1\xff\n2\n"),
        ("g.e", b"0 1\n1 \xfe2\n"),
        ("w.e", b"0 1 0.5\n\xc3\n"),
    ];
    for (name, bytes) in cases {
        let path = dir.path().join(name);
        std::fs::write(&path, bytes).expect("write");
        let err = match name {
            "g.v" => read_vertex_file(&path).map(|_| ()),
            "g.e" => read_edge_file(&path).map(|_| ()),
            _ => read_weighted_edge_file(&path).map(|_| ()),
        }
        .unwrap_err();
        match err {
            GraphError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{name}"),
            other => panic!("{name}: expected an InvalidData i/o error, got {other:?}"),
        }
    }
}
