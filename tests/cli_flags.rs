//! `csag` parses each command against the flags that command reads:
//! a flag another command owns is an error, not silently ignored.

use std::process::Command;

fn csag(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_csag"))
        .args(args)
        .output()
        .expect("spawn csag");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_flag_the_command_does_not_read_is_an_error() {
    let dir = std::env::temp_dir().join(format!("csag-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let graph = dir.join("g.txt");
    let graph = graph.to_str().expect("utf-8 temp path");
    let (ok, err) = csag(&[
        "generate",
        "--nodes",
        "60",
        "--communities",
        "2",
        "--out",
        graph,
    ]);
    assert!(ok, "{err}");
    assert!(csag(&["stats", graph]).0);

    for (args, needle) in [
        (
            vec![
                "stats",
                graph,
                "--shards",
                "3",
                "--wal",
                "/nonexistent",
                "--follow",
                "x",
            ],
            "unknown flag --shards for stats",
        ),
        (
            vec!["stats", graph, "--json"],
            "unknown flag --json for stats",
        ),
        (
            vec!["sea", graph, "--query", "0", "--k", "3", "--method", "vac"],
            "unknown flag --method for sea",
        ),
        (
            vec![
                "query",
                graph,
                "--method",
                "sea",
                "--query",
                "0",
                "--k",
                "3",
                "--workers",
                "2",
            ],
            "unknown flag --workers for query",
        ),
        (
            vec!["generate", "--nodes", "9", "--listen", "x"],
            "unknown flag --listen for generate",
        ),
        (vec!["demo", "--seed", "1"], "unknown flag --seed for demo"),
        (
            vec!["serve", graph, "--script", "x"],
            "unknown flag --script for serve",
        ),
        (
            vec!["replica", "--follow", "x", "--replicas", "2"],
            "unknown flag --replicas for replica",
        ),
        (
            vec!["update", graph, "--script", "x", "--seed", "1"],
            "unknown flag --seed for update",
        ),
    ] {
        let (ok, err) = csag(&args);
        assert!(!ok, "`csag {}` must fail", args.join(" "));
        assert!(err.contains(needle), "`csag {}` → {err}", args.join(" "));
    }
    // Flags a command does read keep working, shared ones included.
    assert!(
        csag(&[
            "query", graph, "--method", "sea", "--query", "0", "--k", "2", "--seed", "3", "--json"
        ])
        .0
    );
    assert!(csag(&["demo", "--json"]).0);
    let _ = std::fs::remove_dir_all(&dir);
}
