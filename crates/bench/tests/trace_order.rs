//! A traced sweep writes the same trace on two workers as on one,
//! compile events included: `fig8` and `fig9 --smoke` (every profile
//! compiles once per run and emits its search) run at `-j 1` and `-j 2`,
//! and the trace files must be byte-identical.

use std::path::Path;
use std::process::Command;

/// The trace file `bin args -j jobs --trace <file>` writes.
fn trace(bin: &str, args: &[&str], jobs: &str, round: usize) -> Vec<u8> {
    let name = Path::new(bin).file_name().expect("binary path has a name");
    let path = std::env::temp_dir().join(format!(
        "trace-order-{}-j{jobs}-{round}-{}.jsonl",
        name.to_string_lossy(),
        std::process::id()
    ));
    let out = Command::new(bin)
        .args(args)
        .args(["-j", jobs, "--trace"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{bin} {args:?} -j {jobs}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn cold_parallel_traces_equal_serial_traces() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_fig8"), &[][..]),
        (env!("CARGO_BIN_EXE_fig9"), &["--smoke"][..]),
    ] {
        let serial = trace(bin, args, "1", 0);
        assert!(!serial.is_empty(), "{bin} {args:?}: empty trace");
        // One parallel run may happen to finish in order; three in a row
        // rarely do.
        for round in 0..3 {
            assert!(
                trace(bin, args, "2", round) == serial,
                "{bin} {args:?}: -j 2 trace (round {round}) differs from -j 1"
            );
        }
    }
}
