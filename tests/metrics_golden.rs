//! Golden-string tests for the metrics/report JSON writers CI's smoke
//! steps and scripts parse (`csag-cluster-metrics-v2`,
//! `csag-service-metrics-v1`, the WAL status line, the `recovered
//! {...}` line and the `csag update --json` report). Key order and
//! bytes are part of the contract. The cluster schema was re-pinned
//! once, deliberately, when the `"replicas"` and `"remotes"` arrays
//! became the one `"members"` array; its `"shards"` section kept its
//! bytes.

use csag::cluster::{
    ClusterMetrics, MemberKind, MemberMetrics, ReplicaHealth, ShardSectionMetrics,
};
use csag::durability::{DurabilityStatus, RecoveryReport};
use csag::engine::UpdateReport;
use csag::service::{HistogramSnapshot, MetricsSnapshot};

#[test]
fn cluster_metrics_json_bytes_are_pinned() {
    let metrics = ClusterMetrics {
        primary_epoch: 9,
        records: 8,
        pinned_reads: 7,
        unpinned_reads: 6,
        primary_reads: 5,
        pinned_waits: 4,
        pinned_rejects: 3,
        members: vec![
            MemberMetrics {
                name: "local-0".into(),
                kind: MemberKind::Local,
                health: ReplicaHealth::Healthy,
                connected: true,
                watermark: 9,
                lag: 0,
                records: 8,
                reseeds: 1,
                degraded: 1,
                apply_errors: 2,
                routed_reads: 11,
                outstanding: 1,
                bytes_shipped: 0,
                acks: 0,
            },
            MemberMetrics {
                name: "f\"1".into(),
                kind: MemberKind::Remote,
                health: ReplicaHealth::Reseeding,
                connected: true,
                watermark: 7,
                lag: 2,
                records: 5,
                reseeds: 2,
                degraded: 1,
                apply_errors: 0,
                routed_reads: 0,
                outstanding: 0,
                bytes_shipped: 4096,
                acks: 13,
            },
        ],
        shards: vec![ShardSectionMetrics {
            id: 1,
            owned: 100,
            halo: 12,
            watermark: 9,
            local_hits: 3,
            gathers: 4,
            merge_ms: 1.5,
        }],
    };
    assert_eq!(
        metrics.to_json(),
        concat!(
            r#"{"schema":"csag-cluster-metrics-v2","primary_epoch":9,"records":8,"#,
            r#""pinned_reads":7,"unpinned_reads":6,"primary_reads":5,"pinned_waits":4,"#,
            r#""pinned_rejects":3,"members":[{"name":"local-0","kind":"local","#,
            r#""health":"healthy","connected":true,"watermark":9,"lag":0,"records":8,"#,
            r#""reseeds":1,"degraded":1,"apply_errors":2,"routed_reads":11,"outstanding":1,"#,
            r#""bytes_shipped":0,"acks":0},{"name":"f\"1","kind":"remote","#,
            r#""health":"reseeding","connected":true,"watermark":7,"lag":2,"records":5,"#,
            r#""reseeds":2,"degraded":1,"apply_errors":0,"routed_reads":0,"outstanding":0,"#,
            r#""bytes_shipped":4096,"acks":13}],"shards":[{"id":1,"owned":100,"halo":12,"#,
            r#""watermark":9,"local_hits":3,"gathers":4,"merge_ms":1.5}]}"#
        )
    );

    // Empty sections keep their keys; two rows are comma-separated.
    let two = ClusterMetrics {
        members: Vec::new(),
        shards: vec![metrics.shards[0].clone(), metrics.shards[0].clone()],
        ..metrics
    };
    let json = two.to_json();
    assert!(json.contains(r#""members":[],"shards":[{"id":1,"#));
    assert!(json.contains(r#""merge_ms":1.5},{"id":1,"#));
}

#[test]
fn service_metrics_json_bytes_are_pinned() {
    let hist = |count: u64| HistogramSnapshot {
        count,
        mean_ms: 0.75,
        p50_ms: 0.5,
        p95_ms: 1.0,
        p99_ms: f64::INFINITY,
        buckets: vec![count, 0, 2],
    };
    let snapshot = MetricsSnapshot {
        submitted: 12,
        admitted: 10,
        shed: 1,
        rejected: 1,
        coalesced: 2,
        completed: 10,
        failed: 3,
        degraded: 4,
        executed: 8,
        warm_hits: 2,
        wakes: 5,
        warm_hit_ratio: 0.25,
        per_priority: [hist(1), hist(2), hist(3)],
    };
    assert_eq!(
        snapshot.to_json(),
        concat!(
            r#"{"schema":"csag-service-metrics-v1","submitted":12,"admitted":10,"shed":1,"#,
            r#""rejected":1,"coalesced":2,"completed":10,"failed":3,"degraded":4,"#,
            r#""executed":8,"warm_hits":2,"wakes":5,"warm_hit_ratio":0.25,"per_priority":{"#,
            r#""batch":{"count":1,"mean_ms":0.75,"p50_ms":0.5,"p95_ms":1.0,"p99_ms":null,"#,
            r#""buckets":[1,0,2]},"#,
            r#""standard":{"count":2,"mean_ms":0.75,"p50_ms":0.5,"p95_ms":1.0,"p99_ms":null,"#,
            r#""buckets":[2,0,2]},"#,
            r#""interactive":{"count":3,"mean_ms":0.75,"p50_ms":0.5,"p95_ms":1.0,"p99_ms":null,"#,
            r#""buckets":[3,0,2]}}}"#
        )
    );
}

#[test]
fn durability_status_json_bytes_are_pinned() {
    let status = DurabilityStatus {
        degraded: Some("disk \"full\"".into()),
        appends: 7,
        fsyncs: 6,
        rotations: 5,
        checkpoints: 4,
        checkpoint_failures: 3,
        last_checkpoint_epoch: 2,
        last_epoch: 9,
    };
    assert_eq!(
        status.to_json(),
        concat!(
            r#"{"degraded":"disk \"full\"","appends":7,"fsyncs":6,"rotations":5,"#,
            r#""checkpoints":4,"checkpoint_failures":3,"last_checkpoint_epoch":2,"last_epoch":9}"#
        )
    );
    assert!(DurabilityStatus::default()
        .to_json()
        .starts_with(r#"{"degraded":null,"appends":0,"#));
}

#[test]
fn recovery_report_json_bytes_are_pinned() {
    let report = RecoveryReport {
        checkpoint_epoch: 4,
        records_replayed: 3,
        epoch: 7,
        torn_tail_truncated: true,
        truncated_bytes: 19,
        segments_scanned: 2,
    };
    assert_eq!(
        report.to_json(),
        concat!(
            r#"{"checkpoint_epoch":4,"records_replayed":3,"epoch":7,"#,
            r#""torn_tail_truncated":true,"truncated_bytes":19,"segments_scanned":2}"#
        )
    );
}

#[test]
fn update_report_json_bytes_are_pinned() {
    let report = UpdateReport {
        epoch: 3,
        edges_added: 2,
        edges_removed: 1,
        vertices_added: 4,
        attributes_set: 5,
        noops: 6,
        coreness_changed: 7,
        distance_tables_retained: 8,
        distance_tables_invalidated: 9,
    };
    assert_eq!(
        report.to_json(),
        concat!(
            r#"{"epoch":3,"edges_added":2,"edges_removed":1,"vertices_added":4,"#,
            r#""attributes_set":5,"noops":6,"coreness_changed":7,"#,
            r#""distance_tables_retained":8,"distance_tables_invalidated":9}"#
        )
    );
}
