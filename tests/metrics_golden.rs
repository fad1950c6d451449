//! Golden-string tests for the four metrics/report JSON writers CI's
//! smoke steps parse (`csag-cluster-metrics-v1`,
//! `csag-service-metrics-v1`, the WAL status line and the `recovered
//! {...}` line). Key order and bytes are part of the contract: the
//! expected strings were taken from the writers' output before they
//! were moved onto the shared `push_object` helper.

use csag::cluster::{
    ClusterMetrics, RemoteReplicaMetrics, ReplicaHealth, ReplicaMetrics, ShardSectionMetrics,
};
use csag::durability::{DurabilityStatus, RecoveryReport};
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
        replicas: vec![ReplicaMetrics {
            id: 0,
            health: ReplicaHealth::Healthy,
            watermark: 9,
            lag: 0,
            routed_reads: 11,
            outstanding: 1,
            applied: 8,
            apply_errors: 2,
            degraded: 1,
            reseeded: 1,
        }],
        remotes: vec![RemoteReplicaMetrics {
            name: "f\"1".into(),
            health: ReplicaHealth::Reseeding,
            connected: true,
            watermark: 7,
            lag: 2,
            records_sent: 5,
            bytes_shipped: 4096,
            reseeds: 2,
            acks: 13,
            degraded: 1,
        }],
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
            r#"{"schema":"csag-cluster-metrics-v1","primary_epoch":9,"records":8,"#,
            r#""pinned_reads":7,"unpinned_reads":6,"primary_reads":5,"pinned_waits":4,"#,
            r#""pinned_rejects":3,"replicas":[{"id":0,"health":"healthy","watermark":9,"#,
            r#""lag":0,"routed_reads":11,"outstanding":1,"applied":8,"apply_errors":2,"#,
            r#""degraded":1,"reseeded":1}],"remotes":[{"name":"f\"1","health":"reseeding","#,
            r#""connected":true,"watermark":7,"lag":2,"records_sent":5,"bytes_shipped":4096,"#,
            r#""reseeds":2,"acks":13,"degraded":1}],"shards":[{"id":1,"owned":100,"halo":12,"#,
            r#""watermark":9,"local_hits":3,"gathers":4,"merge_ms":1.5}]}"#
        )
    );

    // Empty sections keep their keys; two rows are comma-separated.
    let two = ClusterMetrics {
        replicas: Vec::new(),
        remotes: Vec::new(),
        shards: vec![metrics.shards[0].clone(), metrics.shards[0].clone()],
        ..metrics
    };
    let json = two.to_json();
    assert!(json.contains(r#""replicas":[],"remotes":[],"shards":[{"id":1,"#));
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
