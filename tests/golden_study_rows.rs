//! Golden rows of the three serving studies: the exact `{:?}` of every
//! row of `serving_study`, `fault_campaign` and `lifetime_campaign` on
//! small fixed inputs. Together they exercise batching and shedding,
//! replica failures with kills and retries, and drift health with
//! breaker trips, recalibrations and remaps, so any change to the serving
//! recurrence, its random streams or its report arithmetic shows up here
//! as a loud diff — including `p99_ns`, `alerts_fired` and `accuracy`.
//!
//! To inspect the current rows, run
//! `cargo test --test golden_study_rows -- --nocapture`: each test prints
//! the rows it computed before comparing.

use autohet::prelude::*;
use autohet_dnn::zoo;

fn check(name: &str, actual: Vec<String>, golden: &[&str]) {
    for row in &actual {
        println!("{name}: {row}");
    }
    assert_eq!(actual.len(), golden.len(), "{name}: row count changed");
    for (i, (a, g)) in actual.iter().zip(golden).enumerate() {
        assert_eq!(a, g, "{name}: row {i} drifted");
    }
}

#[test]
fn serving_study_rows_are_pinned() {
    let rows = serving_study(&zoo::lenet5(), 0.95, 11);
    check(
        "serving_study",
        rows.iter().map(|r| format!("{r:?}")).collect(),
        &SERVING_STUDY,
    );
}

#[test]
fn fault_campaign_rows_are_pinned() {
    let cfg = FaultCampaignConfig {
        fault_rates: vec![0.0, 0.1, 0.3],
        seed: 11,
        load: 0.6,
        requests: 400.0,
        spares_per_tile: 1,
        replicas: 2,
    };
    let report = fault_campaign(&zoo::micro_cnn(), &cfg);
    check(
        "fault_campaign",
        report.rows.iter().map(|r| format!("{r:?}")).collect(),
        &FAULT_CAMPAIGN,
    );
}

#[test]
fn lifetime_campaign_rows_are_pinned() {
    let cfg = LifetimeCampaignConfig {
        drift_scales: vec![0.0, 1.0, 4.0],
        epoch_hours: 3_000.0,
        seed: 11,
        load: 0.6,
        requests: 400.0,
        spares_per_tile: 1,
        replicas: 2,
        draws: 2,
        probes: 2,
    };
    let report = lifetime_campaign(&zoo::micro_cnn(), &cfg);
    check(
        "lifetime_campaign",
        report.rows.iter().map(|r| format!("{r:?}")).collect(),
        &LIFETIME_CAMPAIGN,
    );
}

const SERVING_STUDY: [&str; 4] = [
    "ServingStudyRow { label: \"homogeneous/tile-based\", submitted: 2008, rejected: 12, p99_ns: 24352866, slo_attainment: 0.06523904382470119, energy_nj: 70630959.65612775, throughput_rps: 1518.2406605319277, alerts_fired: 1, fairness_index: 1.0 }",
    "ServingStudyRow { label: \"homogeneous/tile-shared\", submitted: 2008, rejected: 12, p99_ns: 24352866, slo_attainment: 0.06523904382470119, energy_nj: 67712946.93254374, throughput_rps: 1518.2406605319277, alerts_fired: 1, fairness_index: 1.0 }",
    "ServingStudyRow { label: \"autohet/tile-based\", submitted: 2008, rejected: 12, p99_ns: 24352786, slo_attainment: 0.06523904382470119, energy_nj: 49981360.422772884, throughput_rps: 1518.2406766996462, alerts_fired: 1, fairness_index: 1.0 }",
    "ServingStudyRow { label: \"autohet/tile-shared\", submitted: 2008, rejected: 12, p99_ns: 24352786, slo_attainment: 0.06523904382470119, energy_nj: 47063355.91581368, throughput_rps: 1518.2406766996462, alerts_fired: 1, fairness_index: 1.0 }",
];
const FAULT_CAMPAIGN: [&str; 12] = [
    "FaultCampaignRow { label: \"homogeneous/tile-based\", fault_rate: 0.0, fidelity: 1.0, spared: 0, remapped: 0, degraded: 0, energy_nj: 18845.818997151124, latency_ns: 787238.3999999999, submitted: 398, completed: 398, failed: 0, degraded_completed: 0, slo_attainment: 0.9949748743718593, p99_ns: 4528796, downtime_ns: 0 }",
    "FaultCampaignRow { label: \"homogeneous/tile-based\", fault_rate: 0.1, fidelity: 1.0, spared: 2, remapped: 2, degraded: 0, energy_nj: 19655.99467747307, latency_ns: 787238.3999999999, submitted: 398, completed: 398, failed: 0, degraded_completed: 61, slo_attainment: 0.8844221105527639, p99_ns: 13708280, downtime_ns: 120197875 }",
    "FaultCampaignRow { label: \"homogeneous/tile-based\", fault_rate: 0.3, fidelity: 0.9166666666666666, spared: 4, remapped: 3, degraded: 0, energy_nj: 20466.170357795017, latency_ns: 787238.3999999999, submitted: 398, completed: 307, failed: 0, degraded_completed: 165, slo_attainment: 0.3391959798994975, p99_ns: 98913099, downtime_ns: 345022640 }",
    "FaultCampaignRow { label: \"homogeneous/tile-shared\", fault_rate: 0.0, fidelity: 1.0, spared: 0, remapped: 0, degraded: 0, energy_nj: 15605.116275863344, latency_ns: 787238.3999999999, submitted: 398, completed: 398, failed: 0, degraded_completed: 0, slo_attainment: 0.9949748743718593, p99_ns: 4528796, downtime_ns: 0 }",
    "FaultCampaignRow { label: \"homogeneous/tile-shared\", fault_rate: 0.1, fidelity: 1.0, spared: 1, remapped: 0, degraded: 2, energy_nj: 16011.528675087959, latency_ns: 787341.3647058823, submitted: 398, completed: 398, failed: 0, degraded_completed: 61, slo_attainment: 0.8844221105527639, p99_ns: 13708486, downtime_ns: 120197875 }",
    "FaultCampaignRow { label: \"homogeneous/tile-shared\", fault_rate: 0.3, fidelity: 0.9166666666666666, spared: 3, remapped: 0, degraded: 3, energy_nj: 16822.65969363456, latency_ns: 787402.5, submitted: 398, completed: 307, failed: 0, degraded_completed: 165, slo_attainment: 0.3391959798994975, p99_ns: 98913264, downtime_ns: 345022640 }",
    "FaultCampaignRow { label: \"autohet/tile-based\", fault_rate: 0.0, fidelity: 1.0, spared: 0, remapped: 0, degraded: 0, energy_nj: 17976.744921439233, latency_ns: 784376.7999999999, submitted: 398, completed: 398, failed: 0, degraded_completed: 0, slo_attainment: 0.9949748743718593, p99_ns: 4525934, downtime_ns: 0 }",
    "FaultCampaignRow { label: \"autohet/tile-based\", fault_rate: 0.1, fidelity: 1.0, spared: 2, remapped: 2, degraded: 0, energy_nj: 18783.975625084724, latency_ns: 784376.7999999999, submitted: 398, completed: 398, failed: 0, degraded_completed: 61, slo_attainment: 0.8844221105527639, p99_ns: 13702558, downtime_ns: 120197875 }",
    "FaultCampaignRow { label: \"autohet/tile-based\", fault_rate: 0.3, fidelity: 0.9565217391304348, spared: 4, remapped: 3, degraded: 0, energy_nj: 19591.206328730215, latency_ns: 784376.7999999999, submitted: 398, completed: 307, failed: 0, degraded_completed: 165, slo_attainment: 0.3417085427135678, p99_ns: 98910238, downtime_ns: 345022640 }",
    "FaultCampaignRow { label: \"autohet/tile-shared\", fault_rate: 0.0, fidelity: 1.0, spared: 0, remapped: 0, degraded: 0, energy_nj: 16362.28351414825, latency_ns: 784376.7999999999, submitted: 398, completed: 398, failed: 0, degraded_completed: 0, slo_attainment: 0.9949748743718593, p99_ns: 4525934, downtime_ns: 0 }",
    "FaultCampaignRow { label: \"autohet/tile-shared\", fault_rate: 0.1, fidelity: 1.0, spared: 2, remapped: 2, degraded: 0, energy_nj: 17169.51421779374, latency_ns: 784376.7999999999, submitted: 398, completed: 398, failed: 0, degraded_completed: 61, slo_attainment: 0.8844221105527639, p99_ns: 13702558, downtime_ns: 120197875 }",
    "FaultCampaignRow { label: \"autohet/tile-shared\", fault_rate: 0.3, fidelity: 0.9130434782608695, spared: 4, remapped: 3, degraded: 1, energy_nj: 17976.744921439233, latency_ns: 784376.7999999999, submitted: 398, completed: 307, failed: 0, degraded_completed: 165, slo_attainment: 0.3417085427135678, p99_ns: 98910238, downtime_ns: 345022640 }",
];
const LIFETIME_CAMPAIGN: [&str; 18] = [
    "LifetimeRow { label: \"homogeneous/tile-based\", drift_scale: 0.0, policy: \"no-recovery\", t_hours: 3000.0, fidelity: 1.0, hw_accuracy_proxy: 0.140625, noise_dev: 0.08438934443382878, spared: 0, remapped: 0, degraded: 0, energy_nj: 18845.818997151124, latency_ns: 787238.3999999999, submitted: 398, completed: 398, errored: 0, slo_attainment: 0.9949748743718593, p99_ns: 4528796, clean_fraction: 1.0, trips: 0, recals: 0, remaps: 0, recovery_ns: 0, accuracy: 0.140625 }",
    "LifetimeRow { label: \"homogeneous/tile-based\", drift_scale: 0.0, policy: \"recalibrate-only\", t_hours: 3000.0, fidelity: 1.0, hw_accuracy_proxy: 0.140625, noise_dev: 0.08438934443382878, spared: 0, remapped: 0, degraded: 0, energy_nj: 18845.818997151124, latency_ns: 787238.3999999999, submitted: 398, completed: 398, errored: 0, slo_attainment: 0.9949748743718593, p99_ns: 4528796, clean_fraction: 1.0, trips: 0, recals: 0, remaps: 0, recovery_ns: 0, accuracy: 0.140625 }",
    "LifetimeRow { label: \"homogeneous/tile-based\", drift_scale: 0.0, policy: \"full-cascade\", t_hours: 3000.0, fidelity: 1.0, hw_accuracy_proxy: 0.140625, noise_dev: 0.08438934443382878, spared: 0, remapped: 0, degraded: 0, energy_nj: 18845.818997151124, latency_ns: 787238.3999999999, submitted: 398, completed: 398, errored: 0, slo_attainment: 0.9949748743718593, p99_ns: 4528796, clean_fraction: 1.0, trips: 0, recals: 0, remaps: 0, recovery_ns: 0, accuracy: 0.140625 }",
    "LifetimeRow { label: \"homogeneous/tile-based\", drift_scale: 1.0, policy: \"no-recovery\", t_hours: 3000.0, fidelity: 1.0, hw_accuracy_proxy: 0.0, noise_dev: 1.218766210265807, spared: 0, remapped: 0, degraded: 0, energy_nj: 18845.818997151124, latency_ns: 787238.3999999999, submitted: 398, completed: 398, errored: 181, slo_attainment: 0.542713567839196, p99_ns: 4528796, clean_fraction: 0.5452261306532663, trips: 0, recals: 0, remaps: 0, recovery_ns: 0, accuracy: 0.0 }",
    "LifetimeRow { label: \"homogeneous/tile-based\", drift_scale: 1.0, policy: \"recalibrate-only\", t_hours: 3000.0, fidelity: 1.0, hw_accuracy_proxy: 0.09375, noise_dev: 0.08931672499756041, spared: 0, remapped: 0, degraded: 0, energy_nj: 18845.818997151124, latency_ns: 787238.3999999999, submitted: 398, completed: 398, errored: 32, slo_attainment: 0.914572864321608, p99_ns: 4528796, clean_fraction: 0.9195979899497487, trips: 29, recals: 28, remaps: 0, recovery_ns: 16000000, accuracy: 0.08621231155778894 }",
    "LifetimeRow { label: \"homogeneous/tile-based\", drift_scale: 1.0, policy: \"full-cascade\", t_hours: 3000.0, fidelity: 1.0, hw_accuracy_proxy: 0.09375, noise_dev: 0.08931672499756041, spared: 0, remapped: 0, degraded: 0, energy_nj: 18845.818997151124, latency_ns: 787238.3999999999, submitted: 398, completed: 398, errored: 31, slo_attainment: 0.9170854271356784, p99_ns: 4528796, clean_fraction: 0.9221105527638191, trips: 28, recals: 27, remaps: 1, recovery_ns: 17100000, accuracy: 0.08644786432160805 }",
    "LifetimeRow { label: \"homogeneous/tile-based\", drift_scale: 4.0, policy: \"no-recovery\", t_hours: 3000.0, fidelity: 0.9166666666666666, hw_accuracy_proxy: 0.0, noise_dev: 3.1257980782964943, spared: 0, remapped: 0, degraded: 1, energy_nj: 18846.619619518486, latency_ns: 787287.0222222222, submitted: 398, completed: 398, errored: 193, slo_attainment: 0.5125628140703518, p99_ns: 4528845, clean_fraction: 0.5150753768844221, trips: 0, recals: 0, remaps: 0, recovery_ns: 0, accuracy: 0.0 }",
    "LifetimeRow { label: \"homogeneous/tile-based\", drift_scale: 4.0, policy: \"recalibrate-only\", t_hours: 3000.0, fidelity: 0.9166666666666666, hw_accuracy_proxy: 0.12890625, noise_dev: 0.10148980969132136, spared: 0, remapped: 0, degraded: 1, energy_nj: 18846.619619518486, latency_ns: 787287.0222222222, submitted: 398, completed: 398, errored: 77, slo_attainment: 0.8015075376884422, p99_ns: 4528845, clean_fraction: 0.8065326633165829, trips: 60, recals: 58, remaps: 0, recovery_ns: 35500000, accuracy: 0.10396710113065327 }",
    "LifetimeRow { label: \"homogeneous/tile-based\", drift_scale: 4.0, policy: \"full-cascade\", t_hours: 3000.0, fidelity: 0.9166666666666666, hw_accuracy_proxy: 0.12890625, noise_dev: 0.10148980969132136, spared: 1, remapped: 0, degraded: 0, energy_nj: 19250.906837312097, latency_ns: 787238.3999999999, submitted: 398, completed: 398, errored: 73, slo_attainment: 0.8115577889447236, p99_ns: 4528796, clean_fraction: 0.8165829145728644, trips: 58, recals: 57, remaps: 1, recovery_ns: 34500000, accuracy: 0.1052626413316583 }",
    "LifetimeRow { label: \"autohet/tile-shared\", drift_scale: 0.0, policy: \"no-recovery\", t_hours: 3000.0, fidelity: 1.0, hw_accuracy_proxy: 0.09375, noise_dev: 0.08522354747618213, spared: 0, remapped: 0, degraded: 0, energy_nj: 16362.28351414825, latency_ns: 784376.7999999999, submitted: 398, completed: 398, errored: 0, slo_attainment: 0.9949748743718593, p99_ns: 4525934, clean_fraction: 1.0, trips: 0, recals: 0, remaps: 0, recovery_ns: 0, accuracy: 0.09375 }",
    "LifetimeRow { label: \"autohet/tile-shared\", drift_scale: 0.0, policy: \"recalibrate-only\", t_hours: 3000.0, fidelity: 1.0, hw_accuracy_proxy: 0.09375, noise_dev: 0.08522354747618213, spared: 0, remapped: 0, degraded: 0, energy_nj: 16362.28351414825, latency_ns: 784376.7999999999, submitted: 398, completed: 398, errored: 0, slo_attainment: 0.9949748743718593, p99_ns: 4525934, clean_fraction: 1.0, trips: 0, recals: 0, remaps: 0, recovery_ns: 0, accuracy: 0.09375 }",
    "LifetimeRow { label: \"autohet/tile-shared\", drift_scale: 0.0, policy: \"full-cascade\", t_hours: 3000.0, fidelity: 1.0, hw_accuracy_proxy: 0.09375, noise_dev: 0.08522354747618213, spared: 0, remapped: 0, degraded: 0, energy_nj: 16362.28351414825, latency_ns: 784376.7999999999, submitted: 398, completed: 398, errored: 0, slo_attainment: 0.9949748743718593, p99_ns: 4525934, clean_fraction: 1.0, trips: 0, recals: 0, remaps: 0, recovery_ns: 0, accuracy: 0.09375 }",
    "LifetimeRow { label: \"autohet/tile-shared\", drift_scale: 1.0, policy: \"no-recovery\", t_hours: 3000.0, fidelity: 1.0, hw_accuracy_proxy: 0.0, noise_dev: 1.2948286879950723, spared: 0, remapped: 0, degraded: 0, energy_nj: 16362.28351414825, latency_ns: 784376.7999999999, submitted: 398, completed: 398, errored: 181, slo_attainment: 0.542713567839196, p99_ns: 4525934, clean_fraction: 0.5452261306532663, trips: 0, recals: 0, remaps: 0, recovery_ns: 0, accuracy: 0.0 }",
    "LifetimeRow { label: \"autohet/tile-shared\", drift_scale: 1.0, policy: \"recalibrate-only\", t_hours: 3000.0, fidelity: 1.0, hw_accuracy_proxy: 0.09375, noise_dev: 0.08903770486004939, spared: 0, remapped: 0, degraded: 0, energy_nj: 16362.28351414825, latency_ns: 784376.7999999999, submitted: 398, completed: 398, errored: 32, slo_attainment: 0.914572864321608, p99_ns: 4525934, clean_fraction: 0.9195979899497487, trips: 29, recals: 28, remaps: 0, recovery_ns: 16000000, accuracy: 0.08621231155778894 }",
    "LifetimeRow { label: \"autohet/tile-shared\", drift_scale: 1.0, policy: \"full-cascade\", t_hours: 3000.0, fidelity: 1.0, hw_accuracy_proxy: 0.09375, noise_dev: 0.08903770486004939, spared: 0, remapped: 0, degraded: 0, energy_nj: 16362.28351414825, latency_ns: 784376.7999999999, submitted: 398, completed: 398, errored: 31, slo_attainment: 0.9170854271356784, p99_ns: 4525934, clean_fraction: 0.9221105527638191, trips: 28, recals: 27, remaps: 1, recovery_ns: 17100000, accuracy: 0.08644786432160805 }",
    "LifetimeRow { label: \"autohet/tile-shared\", drift_scale: 4.0, policy: \"no-recovery\", t_hours: 3000.0, fidelity: 0.9565217391304348, hw_accuracy_proxy: 0.0, noise_dev: 3.323820691576493, spared: 0, remapped: 0, degraded: 1, energy_nj: 16362.984121155288, latency_ns: 784425.4222222222, submitted: 398, completed: 398, errored: 193, slo_attainment: 0.5125628140703518, p99_ns: 4525983, clean_fraction: 0.5150753768844221, trips: 0, recals: 0, remaps: 0, recovery_ns: 0, accuracy: 0.0 }",
    "LifetimeRow { label: \"autohet/tile-shared\", drift_scale: 4.0, policy: \"recalibrate-only\", t_hours: 3000.0, fidelity: 0.9565217391304348, hw_accuracy_proxy: 0.1345108695652174, noise_dev: 0.10549330951104466, spared: 0, remapped: 0, degraded: 1, energy_nj: 16362.984121155288, latency_ns: 784425.4222222222, submitted: 398, completed: 398, errored: 77, slo_attainment: 0.8015075376884422, p99_ns: 4525983, clean_fraction: 0.8065326633165829, trips: 60, recals: 58, remaps: 0, recovery_ns: 35500000, accuracy: 0.10848740987546429 }",
    "LifetimeRow { label: \"autohet/tile-shared\", drift_scale: 4.0, policy: \"full-cascade\", t_hours: 3000.0, fidelity: 0.9565217391304348, hw_accuracy_proxy: 0.1345108695652174, noise_dev: 0.10549330951104466, spared: 1, remapped: 0, degraded: 0, energy_nj: 16765.898865970994, latency_ns: 784376.7999999999, submitted: 398, completed: 398, errored: 73, slo_attainment: 0.8115577889447236, p99_ns: 4525934, clean_fraction: 0.8165829145728644, trips: 58, recals: 57, remaps: 1, recovery_ns: 34500000, accuracy: 0.10983927791129562 }",
];
