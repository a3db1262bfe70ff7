#!/bin/sh
# Tier-1 gate: build, tests, lints. Run before every push.
set -eux

cargo fmt --all --check
cargo build --release
cargo test -q --workspace
cargo test -q --test resume_determinism
cargo test -q --test trace_determinism
cargo test -q --test sched_determinism
cargo test -q --test daemon_determinism
cargo test -q --test incremental_determinism
cargo test -q --test platform_determinism
cargo test -q --test oplog_determinism
cargo test -q -p oplog
cargo clippy --all-targets -- -D warnings
cargo bench --no-run
# The benchmark's schema self-check; also compiles it against the crates'
# public API, so a change that breaks the benchmark fails here.
cargo test -q --manifest-path perfbench/Cargo.toml
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q -p chatbot-audit-repro -p sched
# The deprecated batch drain() must keep steering callers at the
# always-on daemon loop in its rendered deprecation note.
grep -q 'superseded by the always-on loop' target/doc/sched/struct.Scheduler.html
grep -q 'run_until' target/doc/sched/struct.Scheduler.html
