//! `csag` parses each command against the flags that command reads:
//! a flag another command owns is an error, not silently ignored; and
//! text the parsers must refuse is exit 1 with a typed message, never a
//! panic.

use std::process::Command;

/// Exit code and stderr of one `csag` run.
fn csag_exit(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_csag"))
        .args(args)
        .output()
        .expect("spawn csag");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn csag(args: &[&str]) -> (bool, String) {
    let (code, err) = csag_exit(args);
    (code == Some(0), err)
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

/// `f64::from_str` accepts `nan`/`inf`; the graph and update parsers must
/// not. A non-finite attribute is exit 1 with the parser's typed message
/// on stderr — no panic backtrace, no output file, no WAL directory.
#[test]
fn non_finite_numbers_are_typed_errors_that_write_nothing() {
    let dir = std::env::temp_dir().join(format!("csag-cli-nonfinite-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 temp path").to_owned();
    let (graph, script, out, wal) = (path("g.txt"), path("u.txt"), path("out.txt"), path("wal"));
    std::fs::write(
        &graph,
        "csag-graph v1\ndims 2\nnode 0 a 0 0.5\nnode 1 a 1 0.5\nnode 2 b 2 0.5\n\
         edge 0 1\nedge 1 2\nedge 0 2\n",
    )
    .expect("write graph");

    for bad in ["nan", "NaN", "inf", "-inf", "infinity", "1e999"] {
        std::fs::write(&script, format!("add-edge 0 1\nset-attrs 1 a {bad} 0.5\n"))
            .expect("write script");
        let (code, err) = csag_exit(&[
            "update", &graph, "--script", &script, "--out", &out, "--wal", &wal,
        ]);
        assert_eq!(code, Some(1), "update with {bad}: {err}");
        assert!(
            err.contains(&format!("line 2: set-attrs: bad numeric attribute `{bad}`")),
            "update with {bad}: {err}"
        );
        assert!(!err.contains("panicked"), "update with {bad}: {err}");
        assert!(!std::path::Path::new(&out).exists(), "{bad}: --out written");
        assert!(!std::path::Path::new(&wal).exists(), "{bad}: --wal created");

        let poisoned = path("poisoned.txt");
        std::fs::write(
            &poisoned,
            format!("csag-graph v1\ndims 1\nnode 0 a {bad}\nnode 1 a 1\nedge 0 1\n"),
        )
        .expect("write poisoned graph");
        for method in ["exact", "sea"] {
            let (code, err) = csag_exit(&[
                "query", &poisoned, "--method", method, "--query", "0", "--k", "2",
            ]);
            assert_eq!(code, Some(1), "{method} on a {bad} graph: {err}");
            assert!(
                err.contains("line 3: bad numeric attribute") && !err.contains("panicked"),
                "{method} on a {bad} graph: {err}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An update whose token field holds an empty token is refused where the
/// script is read: accepting `set-attrs 0 ,` saved node 0 as
/// `node 0  0.33 0.76`, a line that no longer loads. The graph file
/// reader refuses the same field.
#[test]
fn empty_tokens_are_typed_errors_that_write_nothing() {
    let dir = std::env::temp_dir().join(format!("csag-cli-empty-token-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 temp path").to_owned();
    let (graph, script, out) = (path("g.txt"), path("u.txt"), path("out.txt"));
    let text = "csag-graph v1\ndims 2\nnode 0 a 0 0.5\nnode 1 a 1 0.5\nedge 0 1\n";
    std::fs::write(&graph, text).expect("write graph");
    std::fs::write(&script, "set-attrs 0 ,\n").expect("write script");

    let (code, err) = csag_exit(&["update", &graph, "--script", &script, "--out", &out]);
    assert_eq!(code, Some(1), "{err}");
    assert!(
        err.contains("line 1: set-attrs: empty token in `,`"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
    assert!(!std::path::Path::new(&out).exists(), "--out written");

    let broken = path("broken.txt");
    std::fs::write(&broken, text.replace("node 0 a", "node 0 ,")).expect("write graph");
    let (code, err) = csag_exit(&["stats", &broken]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("line 3: empty token in `,`"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
