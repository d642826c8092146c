//! Differential test of `color_parallel` against the speculative coloring
//! it replaced, on the CLI's synthetic families (the CI scenario-matrix
//! graphs and larger siblings).

use grappolo_cli::run;
use grappolo_coloring::{color_parallel_with_stats, is_valid_distance1, ParallelColoringConfig};
use grappolo_graph::{io, CsrGraph, VertexId};

/// The previous `color_parallel`: every round re-reads the whole adjacency
/// of every uncolored vertex against the colors frozen at the round's
/// start, takes the smallest free color (collect, sort, scan), then
/// uncolors the higher-id endpoint of every equal-colored pair.
fn rescan_coloring(g: &CsrGraph) -> Vec<u32> {
    const UNCOLORED: u32 = u32::MAX;
    let n = g.num_vertices();
    let mut colors = vec![UNCOLORED; n];
    let mut worklist: Vec<VertexId> = (0..n as VertexId).collect();
    while !worklist.is_empty() {
        let tentative: Vec<u32> = worklist
            .iter()
            .map(|&v| {
                let mut taken: Vec<u32> = g
                    .neighbor_ids(v)
                    .iter()
                    .filter(|&&u| u != v)
                    .map(|&u| colors[u as usize])
                    .filter(|&c| c != UNCOLORED)
                    .collect();
                taken.sort_unstable();
                let mut c = 0u32;
                for t in taken {
                    if t == c {
                        c += 1;
                    } else if t > c {
                        break;
                    }
                }
                c
            })
            .collect();
        for (&v, &c) in worklist.iter().zip(&tentative) {
            colors[v as usize] = c;
        }
        let losers: Vec<VertexId> = worklist
            .iter()
            .copied()
            .filter(|&v| {
                g.neighbor_ids(v)
                    .iter()
                    .any(|&u| u != v && colors[u as usize] == colors[v as usize] && v > u)
            })
            .collect();
        for &v in &losers {
            colors[v as usize] = UNCOLORED;
        }
        worklist = losers;
    }
    colors
}

fn generated(family: &str, scale: &str, seed: &str) -> CsrGraph {
    let dir = std::env::temp_dir().join("grappolo_coloring_reference");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{family}_{scale}_{seed}.grb"));
    let argv: Vec<String> = ["generate", family, "--scale", scale, "--seed", seed, "-o"]
        .iter()
        .map(|s| s.to_string())
        .chain([path.to_str().unwrap().to_string()])
        .collect();
    assert_eq!(run(&argv), 0, "generate {family}");
    io::load_path(&path).unwrap()
}

/// Bitwise equal to the rescan reference under pools of 1–16 threads, and
/// never reaching the work budget on these inputs.
#[test]
fn color_parallel_matches_rescan_reference() {
    let cfg = ParallelColoringConfig { serial_cutoff: 0 };
    for (family, scale, seed) in [
        ("er", "0.1", "7"),
        ("planted", "0.1", "7"),
        ("rmat", "0.1", "7"),
        ("blocks", "0.08", "17"),
        ("planted", "0.4", "3"),
        ("rmat", "0.4", "3"),
    ] {
        let g = generated(family, scale, seed);
        let expected = rescan_coloring(&g);
        for threads in [1, 2, 4, 8, 16] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (colors, stats) = pool.install(|| color_parallel_with_stats(&g, &cfg));
            let case = format!("{family} scale {scale} seed {seed}, {threads} threads");
            assert!(
                colors == expected,
                "{case}: colors differ from the reference"
            );
            assert!(is_valid_distance1(&g, &colors), "{case}: invalid coloring");
            assert_eq!(stats.serial_finish, 0, "{case}: {stats:?}");
        }
    }
}
