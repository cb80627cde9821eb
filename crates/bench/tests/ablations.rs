//! The A1 and A2 ablation tables are pinned byte for byte: `repro cost-model`
//! (the §4 two-way join against its `min(IN, OUT)` bound) and `repro
//! triangle-theta` (the §6.1.2 heavy/light θ sweep) run on fixed-seed
//! synthetic graphs, so every count they print is deterministic. A change to
//! either vertex program that moves a message count fails here first. To
//! re-capture after an intended change:
//! `repro cost-model > crates/bench/tests/golden/cost_model.txt` (likewise
//! `triangle-theta > triangle_theta.txt`).

use std::process::Command;

fn stdout_of(mode: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).arg(mode).output().expect("repro spawns");
    assert!(out.status.success(), "{mode} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn cost_model_output_is_pinned() {
    assert_eq!(stdout_of("cost-model"), include_str!("golden/cost_model.txt"));
}

#[test]
fn triangle_theta_output_is_pinned() {
    assert_eq!(stdout_of("triangle-theta"), include_str!("golden/triangle_theta.txt"));
}
