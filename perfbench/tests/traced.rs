//! The traced run, in a test binary of its own: `deta_telemetry::
//! enable()` is process-wide and cannot be undone.

use deta_perfbench::traced;
use deta_perfbench::workloads::WORKLOADS;

#[test]
fn traced_run_of_every_workload_attributes_its_rounds() {
    let dir = std::env::temp_dir().join(format!("perfbench-traced-{}", std::process::id()));
    for w in &WORKLOADS {
        let t = traced::measure(w, 4, &dir).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(t.rates.len(), traced::SESSIONS);
        let shares = t.shares();
        let get = |name: &str| {
            shares
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        // The buckets partition round wall time.
        let sum: f64 = shares
            .iter()
            .filter(|(n, _)| n != "cp.attributed")
            .map(|(_, v)| v)
            .sum();
        assert!((sum - 1.0).abs() < 0.02, "{}: shares sum to {sum}", w.name);
        assert!(get("cp.local_train") > 0.0, "{}", w.name);
        assert!((0.0..=1.0).contains(&get("cp.attributed")), "{}", w.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
