//! Registry conformance: every row of the table keeps the promises the
//! front doors rely on, and the README's platform table is the registry's.

use graphalytics_algos::{reference, Algorithm};
use graphalytics_core::platform::RunContext;
use graphalytics_graph::{CsrGraph, EdgeListGraph};
use graphalytics_platforms::{build, build_all, resolve, Properties, PAPER_FLEET, PLATFORMS};

fn tiny_graph() -> CsrGraph {
    CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(vec![
        (0, 1),
        (1, 2),
        (0, 2),
        (2, 3),
        (4, 5),
    ]))
}

#[test]
fn every_row_builds_names_itself_and_answers_bfs() {
    let graph = tiny_graph();
    let bfs = Algorithm::Bfs { source: 0 };
    let expected = reference(&graph, &bfs);
    for row in &PLATFORMS {
        let mut platform = (row.build)(&Properties::new()).unwrap();
        assert_eq!(platform.name(), row.display_name, "{}", row.name);
        assert!((row.default_workers)() >= 1, "{}", row.name);
        if row.needs_worker_binary {
            // Needs gx-distrib-worker beside the test binary; the distrib
            // crate's own e2e suites run it.
            continue;
        }
        let handle = platform.load_graph(&graph).unwrap();
        let output = platform
            .run(handle, &bfs, &RunContext::unbounded())
            .unwrap();
        assert!(expected.equivalent(&output), "{}: {output:?}", row.name);
        platform.unload(handle);
    }
}

#[test]
fn names_and_aliases_resolve_to_one_row_each() {
    let mut seen = std::collections::BTreeSet::new();
    for row in &PLATFORMS {
        for name in std::iter::once(&row.name).chain(row.aliases) {
            assert!(seen.insert(*name), "{name} names two rows");
            assert_eq!(*name, name.to_lowercase(), "front doors lower-case names");
            assert!(std::ptr::eq(resolve(name).unwrap(), row), "{name}");
        }
    }
    assert_eq!(resolve("hadoop").unwrap().name, "mapreduce");
    assert_eq!(resolve("distrib").unwrap().name, "distributed-pregel");
}

#[test]
fn unknown_names_get_the_one_shared_message() {
    let message = "unknown platform \"spark\" (available: giraph, graphx, mapreduce, \
                   neo4j, virtuoso, reference, distributed-pregel)";
    assert_eq!(resolve("spark").err().unwrap(), message);
    assert_eq!(build("spark", &Properties::new()).err().unwrap(), message);
    assert_eq!(
        build_all(&["reference", "spark"], &Properties::new()).err(),
        Some(message.to_string())
    );
}

#[test]
fn the_paper_fleet_is_four_rows_of_the_table() {
    let built = build_all(&PAPER_FLEET, &Properties::new()).unwrap();
    let shown: Vec<&str> = built.iter().map(|p| p.name()).collect();
    assert_eq!(shown, ["Giraph", "GraphX", "MapReduce", "Neo4j"]);
    let worker_binary: Vec<&str> = (PLATFORMS.iter())
        .filter(|row| row.needs_worker_binary)
        .map(|row| row.name)
        .collect();
    assert_eq!(worker_binary, ["distributed-pregel"]);
}

#[test]
fn every_listed_key_is_read_and_nothing_else_is() {
    for row in &PLATFORMS {
        for key in row.property_keys {
            let malformed = Properties::from([(key.to_string(), "four".to_string())]);
            let error = build(row.name, &malformed).err().unwrap();
            let names_both = format!("config error: {key} = \"four\" is not a valid u");
            assert!(error.starts_with(&names_both), "{}: {error}", row.name);
            let set = Properties::from([(key.to_string(), "2".to_string())]);
            assert!(build(row.name, &set).is_ok(), "{key}");
        }
        // Another platform's malformed key is not this platform's problem.
        let foreign = Properties::from([("spark.executors".to_string(), "many".to_string())]);
        assert!(build(row.name, &foreign).is_ok(), "{}", row.name);
    }
}

#[test]
fn properties_reach_the_engine() {
    let graph = CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(
        (0..4096).map(|i| (i, i + 1)).collect(),
    ));
    // 0 MiB budgets: the three budgeted engines refuse the graph.
    for (name, key) in [
        ("giraph", "giraph.memory_mb"),
        ("graphx", "graphx.memory_mb"),
        ("neo4j", "neo4j.page_cache_mb"),
    ] {
        let starved = Properties::from([(key.to_string(), "0".to_string())]);
        let mut platform = build(name, &starved).unwrap();
        assert!(platform.load_graph(&graph).is_err(), "{name} ignored {key}");
        let mut roomy = build(name, &Properties::new()).unwrap();
        assert!(roomy.load_graph(&graph).is_ok(), "{name}");
    }
}

/// The README's platform table, rendered from the registry.
fn readme_table() -> String {
    let code = |items: &[&str]| match items {
        [] => "—".to_string(),
        items => items
            .iter()
            .map(|i| format!("`{i}`"))
            .collect::<Vec<_>>()
            .join(", "),
    };
    let mut table = String::from(
        "| Config name | Aliases | Report name | Default workers | Property keys |\n\
         |---|---|---|---|---|\n",
    );
    for row in &PLATFORMS {
        table.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            row.name,
            code(row.aliases),
            row.display_name,
            (row.default_workers)(),
            code(row.property_keys),
        ));
    }
    table
}

#[test]
fn readme_platform_table_is_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(path).unwrap();
    let table = readme_table();
    assert!(
        readme.contains(&table),
        "README.md's platform table is out of date; it should read:\n{table}"
    );
}
