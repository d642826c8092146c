//! End-to-end tests for the CLI surface: typed exit codes and the
//! `query` client against an in-process `grappolo_serve::Server`.

use grappolo_cli::run;
use grappolo_graph::gen::{planted_partition, PlantedConfig};
use grappolo_serve::{ServeConfig, Server};
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("grappolo_cli_e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

#[test]
fn missing_graph_file_exits_3() {
    let dir = tmp_dir("exit3");
    let missing = dir.join("no-such.grb");
    assert_eq!(run(&argv(&["stats", missing.to_str().unwrap()])), 3);
}

#[test]
fn unknown_generator_id_exits_4() {
    let dir = tmp_dir("exit4");
    let out = dir.join("out.grb");
    assert_eq!(
        run(&argv(&[
            "generate",
            "no-such-family",
            "-o",
            out.to_str().unwrap()
        ])),
        4
    );
    assert!(
        !out.exists(),
        "failed generate must not leave output behind"
    );
}

#[test]
fn malformed_graph_file_exits_4() {
    let dir = tmp_dir("exit4-parse");
    let bad = dir.join("bad.edges");
    std::fs::write(&bad, "0 not-a-vertex\n").unwrap();
    assert_eq!(run(&argv(&["stats", bad.to_str().unwrap()])), 4);
}

#[test]
fn usage_error_exits_2() {
    assert_eq!(run(&argv(&["no-such-subcommand"])), 2);
    assert_eq!(run(&argv(&["detect"])), 2);
}

#[test]
fn audit_distinguishes_finding_from_failure() {
    let dir = tmp_dir("audit-codes");
    let graph = dir.join("g.edges");
    // Two disjoint edges: {0,1} and {2,3}.
    std::fs::write(&graph, "0 1\n2 3\n").unwrap();

    // All four vertices in one community -> internally disconnected: exit 5.
    let bad = dir.join("bad.assign");
    std::fs::write(&bad, "0 0\n1 0\n2 0\n3 0\n").unwrap();
    assert_eq!(
        run(&argv(&[
            "audit",
            graph.to_str().unwrap(),
            bad.to_str().unwrap()
        ])),
        5
    );

    // Matching the component structure -> clean: exit 0.
    let good = dir.join("good.assign");
    std::fs::write(&good, "0 0\n1 0\n2 1\n3 1\n").unwrap();
    assert_eq!(
        run(&argv(&[
            "audit",
            graph.to_str().unwrap(),
            good.to_str().unwrap()
        ])),
        0
    );

    // Could-not-run (missing assignment file) -> exit 3, not 5.
    let missing = dir.join("no-such.assign");
    assert_eq!(
        run(&argv(&[
            "audit",
            graph.to_str().unwrap(),
            missing.to_str().unwrap()
        ])),
        3
    );
}

#[test]
fn query_round_trips_against_in_process_server() {
    let (graph, _) = planted_partition(&PlantedConfig {
        num_vertices: 200,
        num_communities: 4,
        seed: 7,
        ..Default::default()
    });
    let handle = Server::start_with_graph(graph, ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();

    // Inline command succeeds.
    assert_eq!(run(&argv(&["query", "--addr", &addr, "ping"])), 0);
    assert_eq!(run(&argv(&["query", "--addr", &addr, "stats"])), 0);

    // Script file with several commands succeeds end to end.
    let dir = tmp_dir("query-script");
    let script = dir.join("script.txt");
    std::fs::write(&script, "# smoke\nping\ncommunity-of 0\nmembers 0\nstats\n").unwrap();
    assert_eq!(
        run(&argv(&[
            "query",
            "--addr",
            &addr,
            "--script",
            script.to_str().unwrap()
        ])),
        0
    );

    // A request the server answers with `err ...` makes the client exit 1.
    assert_eq!(
        run(&argv(&["query", "--addr", &addr, "community-of", "999999"])),
        1
    );

    handle.shutdown();

    // Connecting to a dead server is an I/O failure: exit 3.
    assert_eq!(run(&argv(&["query", "--addr", &addr, "ping"])), 3);
}

/// Writes `edges` as a whitespace edge list and runs `detect --scheme
/// color` on it, returning the exit code.
fn detect_color_on(name: &str, edges: impl Iterator<Item = (u32, u32)>) -> i32 {
    let dir = tmp_dir(name);
    let graph = dir.join("g.edges");
    let text: String = edges.map(|(u, v)| format!("{u} {v}\n")).collect();
    std::fs::write(&graph, text).unwrap();
    let assignments = dir.join("a.txt");
    run(&argv(&[
        "detect",
        graph.to_str().unwrap(),
        "--scheme",
        "color",
        "--assignments",
        assignments.to_str().unwrap(),
    ]))
}

/// An ascending-id path settles O(1) vertices per speculative coloring
/// round. At 21 K vertices it needs more rounds than the retired
/// `max_rounds` cap, which used to panic with exit 101.
#[test]
fn detect_color_survives_ascending_path() {
    assert_eq!(
        detect_color_on("ascending-path", (0..20_999).map(|i| (i, i + 1))),
        0
    );
}

#[test]
fn detect_color_survives_shuffled_path() {
    // 7919 is coprime to 120 000, so i ↦ 7919·i mod n permutes the ids.
    let shuffled = |i: u32| (i as u64 * 7_919 % 120_000) as u32;
    assert_eq!(
        detect_color_on(
            "shuffled-path",
            (0..119_999).map(|i| (shuffled(i), shuffled(i + 1)))
        ),
        0
    );
}

#[test]
fn detect_color_survives_stars_and_cliques() {
    assert_eq!(
        detect_color_on("star-hub-low", (1..=50_000).map(|v| (0, v))),
        0
    );
    assert_eq!(
        detect_color_on("star-hub-high", (0..50_000).map(|v| (v, 50_000))),
        0
    );
    assert_eq!(
        detect_color_on(
            "clique-500",
            (0..500).flat_map(|u| (u + 1..500).map(move |v| (u, v)))
        ),
        0
    );
}
