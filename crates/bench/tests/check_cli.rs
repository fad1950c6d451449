//! `experiments load --expect`: the answer check behind every CI smoke
//! passes on the answer it was given and, pointed at a wrong one, exits
//! non-zero naming the response id and the first differing path.

use csag::datasets::paper_examples::figure1_imdb;
use csag::engine::{CommunityQuery, Engine, Method};
use csag::json::{self, Value};
use csag::service::{response_to_json, Request, Service, ServiceConfig};
use std::process::Command;

#[test]
fn a_wrong_expectation_fails_naming_the_id_and_the_path() {
    let (graph, q) = figure1_imdb();
    let sea = CommunityQuery::new(Method::Sea, q).with_k(3).with_seed(9);
    let service = Service::over_graph(graph.clone(), ServiceConfig::default().with_workers(1));
    let response = service.run(Request::new(sea.clone())).expect("admitted");
    let engine = Engine::new(graph);
    let right = engine.run(&sea).expect("sea answers").to_json();
    let vac = CommunityQuery::new(Method::Vac, q).with_k(3);
    let vac = engine.run(&vac).expect("vac answers").to_json();
    // The right answer with one community member swapped.
    let mut perturbed = json::parse(&right).expect("to_json renders JSON");
    let Value::Object(members) = &mut perturbed else {
        panic!("a result is an object");
    };
    let community = members.iter_mut().find(|(key, _)| key == "community");
    let Some((_, Value::Array(community))) = community else {
        panic!("a result carries its community");
    };
    community[1] = Value::UInt(4_000_000);

    let dir = std::env::temp_dir().join(format!("csag-check-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = |name: &str, content: &str| {
        let path = dir.join(name);
        std::fs::write(&path, content).expect("write fixture");
        path.to_str().expect("utf-8 temp path").to_string()
    };
    let responses = file("responses.jsonl", &response_to_json("\"a\"", &response));
    let check = |expected: &str, extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["load", "--responses", &responses, "--expect"])
            .arg(format!("a={expected}"))
            .args(extra)
            .output()
            .expect("spawn experiments");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };

    let (code, stdout, stderr) = check(&file("right.json", &right), &[]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("1 answer(s) byte-match"), "{stdout}");
    assert_eq!(
        check(&file("right.json", &right), &["--ignore", "epoch"]).0,
        Some(0)
    );

    let (code, _, stderr) = check(&file("perturbed.json", &perturbed.render()), &[]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("response a differs"), "{stderr}");
    assert!(stderr.contains("at $.community[1]"), "{stderr}");

    let (code, _, stderr) = check(&file("vac.json", &vac), &[]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("response a differs"), "{stderr}");
    assert!(stderr.contains("at $.certificate"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}
