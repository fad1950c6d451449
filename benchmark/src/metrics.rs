//! Every metric the benchmark prints, by name: unit, good direction,
//! and — for the end-to-end ones — the regression bound. `BENCHMARK.json`
//! carries the same table for the driver; a test keeps the two equal.

use crate::json::Json;

/// The end-to-end metrics — what a user of the system would see and
/// this host can bound — as `(name, unit)`. Their good directions and
/// regression bounds live in `BENCHMARK.json` only (the driver and
/// `compare` read them there; README.md, "Bounds", says where the
/// numbers come from). The untraced run measures the five client-side
/// timing metrics at the head of [`PER_LAYER`] as well, prints them in
/// its table and keeps them in `--record` files.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("certified_ratio", "ratio"),
    ("mean_delta", "delta"),
];

/// The per-layer metrics of the traced run, as `(name, unit)`. The
/// end-to-end metric and workload each one should move are in README.md
/// ("Layers"). The first five are the client's view of a pass: what a
/// user sees, but spread too wide on this host to carry a bound of
/// 10 % (README.md, "Bounds") — they move back up when a quieter host
/// lets them.
pub const PER_LAYER: [(&str, &str); 74] = [
    ("read_qps", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("client.rtt_ms_p50", "ms"),
    ("client.pass_spread", "ratio"),
    ("transport.overhead_us_p50", "us"),
    ("transport.connections_accepted", "count"),
    ("wire.parse_us_p50", "us"),
    ("wire.serialize_us_p50", "us"),
    ("wire.response_bytes_mean", "bytes"),
    ("service.overhead_us_p50", "us"),
    ("service.wakes_per_admit", "ratio"),
    ("service.queue_ms_p50", "ms"),
    ("service.coalesced", "count"),
    ("service.shed", "count"),
    ("cluster.route_us_p50", "us"),
    ("engine.total_ms_p50", "ms"),
    ("engine.total_ms_p90", "ms"),
    ("engine.kcore_ms_p50", "ms"),
    ("engine.ktruss_ms_p50", "ms"),
    ("engine.prepare_ms_p50", "ms"),
    ("engine.cold_penalty_ms", "ms"),
    ("engine.warm_hit_ratio", "ratio"),
    ("engine.cached_query_nodes", "count"),
    ("engine.allocs_per_query", "count"),
    ("engine.screen_us_p50", "us"),
    ("engine.no_community_ratio", "ratio"),
    ("core.sampling_ms_p50", "ms"),
    ("core.estimation_ms_p50", "ms"),
    ("core.incremental_ms_p50", "ms"),
    ("core.grow_cold_ms_p50", "ms"),
    ("core.grow_warm_ms_p50", "ms"),
    ("core.population_mean", "count"),
    ("core.sample_size_mean", "count"),
    ("core.rounds_mean", "count"),
    ("core.candidates_mean", "count"),
    ("core.certified_ratio", "ratio"),
    ("core.delta_mean", "delta"),
    ("stats.blb_us_p50", "us"),
    ("decomp.core_full_ms", "ms"),
    ("decomp.truss_full_ms", "ms"),
    ("decomp.incremental_us_per_update", "us"),
    ("decomp.truss_patch_ms_p50", "ms"),
    ("decomp.coreness_changed_mean", "count"),
    ("graph.load_s", "s"),
    ("graph.snapshot_ms_p50", "ms"),
    ("graph.mutable_apply_us_p50", "us"),
    ("graph.parse_script_us_per_update", "us"),
    ("store.apply_ms_p50", "ms"),
    ("store.apply_ms_p90", "ms"),
    ("store.carry_ms_p50", "ms"),
    ("store.tables_retained_ratio", "ratio"),
    ("store.first_read_penalty_ms", "ms"),
    ("durability.wal_overhead_ms_p50", "ms"),
    ("durability.checkpoint_stall_ms_max", "ms"),
    ("durability.write_amp", "ratio"),
    ("durability.fsyncs", "count"),
    ("durability.checkpoints", "count"),
    ("durability.rotations", "count"),
    ("durability.recover_s", "s"),
    ("durability.recover_replayed", "count"),
    ("shard.partition_s", "s"),
    ("shard.local_hit_ratio", "ratio"),
    ("shard.gathers", "count"),
    ("shard.gather_ms_mean", "ms"),
    ("shard.vs_solo_qps_ratio", "ratio"),
    ("shard.publish_ms_p50", "ms"),
    ("shard.resident_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.rtt_coverage", "ratio"),
    ("trace.engine_share_of_rtt", "ratio"),
    ("trace.apply_share_of_pass", "ratio"),
];

/// Measured values by metric name, in table order when printed.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name = value`; `name` must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "`{name}` is not a declared metric");
        debug_assert!(
            !self.0.iter().any(|(n, _)| *n == name),
            "`{name}` set twice"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, …}` for exactly the metrics of
    /// `names`, in that order; a metric nobody measured is an error, not
    /// a silent zero.
    pub fn to_json<'a>(&self, names: impl Iterator<Item = &'a str>) -> Result<Json, String> {
        let mut pairs = Vec::new();
        for name in names {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            let unit = unit_of(name).expect("declared");
            pairs.push((
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            ));
        }
        Ok(Json::obj(pairs))
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::SPECS;

    /// `BENCHMARK.json` is what the driver reads and these tables are
    /// what the program prints: same names, same units, same order.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("valid JSON");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("no `{key}` list"))
                .to_vec()
        };
        let field = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), SPECS.len());
        for (item, spec) in workloads.iter().zip(&SPECS) {
            assert_eq!(field(item, "name"), spec.name);
            assert_eq!(field(item, "why"), spec.why);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = list(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (item, (name, unit)) in listed.iter().zip(table) {
                assert_eq!(field(item, "name"), *name);
                assert_eq!(field(item, "unit"), *unit);
                assert!(matches!(field(item, "better").as_str(), "lower" | "higher"));
                let bound = item.get("bound").and_then(Json::as_f64);
                assert_eq!(bound.is_some(), key == "end_to_end", "{name}");
                assert!(bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{name}");
            }
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "metric names are used once");
    }
}
