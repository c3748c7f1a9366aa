//! Training's final loss is the same bits at every pool width (DESIGN.md
//! §13), seen from outside: the pool width is fixed once per process, so
//! each width runs in its own process.

use std::process::Command;

fn loss_bits(workload: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--loss-bits"])
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .trim()
        .to_string()
}

#[test]
fn final_loss_is_bit_identical_between_parallel_and_serial() {
    let parallel = loss_bits("parallel");
    let serial = loss_bits("serial");
    assert_eq!(
        parallel.len(),
        16,
        "expected 64 bits in hex, got `{parallel}`"
    );
    assert_eq!(parallel, serial);
}
