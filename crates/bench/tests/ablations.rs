//! The A1 and A2 ablation tables are pinned byte for byte: `repro cost-model`
//! (the §4 two-way join against its `min(IN, OUT)` bound) and `repro
//! triangle-theta` (the §6.1.2 heavy/light θ sweep) run on fixed-seed
//! synthetic graphs, so every count they print is deterministic. A change to
//! either vertex program that moves a message count fails here first. So is
//! the E17 fault sweep (`repro faults --sf 0.01 --kill 2@3
//! --checkpoint-every 2`): its checkpoint and recovery bytes price the
//! pending messages and signals, so a change to what a checkpoint holds
//! fails here too. To re-capture after an intended change:
//! `repro cost-model > crates/bench/tests/golden/cost_model.txt` (likewise
//! `triangle-theta > triangle_theta.txt`, and the fault sweep's command line
//! `> faults.txt`).

use std::process::Command;

fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro spawns");
    assert!(out.status.success(), "{args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn cost_model_output_is_pinned() {
    assert_eq!(stdout_of(&["cost-model"]), include_str!("golden/cost_model.txt"));
}

#[test]
fn triangle_theta_output_is_pinned() {
    assert_eq!(stdout_of(&["triangle-theta"]), include_str!("golden/triangle_theta.txt"));
}

#[test]
fn fault_sweep_output_is_pinned() {
    let args = ["faults", "--sf", "0.01", "--kill", "2@3", "--checkpoint-every", "2"];
    assert_eq!(stdout_of(&args), include_str!("golden/faults.txt"));
}
