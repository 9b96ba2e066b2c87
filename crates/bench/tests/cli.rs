//! The figure binaries reject bad input with exit status 2 instead of
//! running something other than what was asked: `fig9` a targeted fault
//! on a page its curve's fabric does not have (before `--trace` creates
//! its file) or a fault count above the cap, and every binary a flag it does not know, a valued flag whose
//! value is missing and a flag given twice.

use std::process::Command;

#[test]
fn fault_on_a_missing_page_exits_2_naming_the_clause_and_page_count() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig9"))
        .args(["--smoke", "--faults", "at=5000,page=16"])
        .output()
        .expect("fig9 runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("page=16"), "must name the clause: {stderr}");
    assert!(
        stderr.contains("16 pages"),
        "must name the page count: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no curve may be printed");
}

/// The spec is checked before `--trace` creates its file: a run that
/// exits 2 on its fault spec leaves no trace behind.
#[test]
fn fault_on_a_missing_page_creates_no_trace_file() {
    let dir = std::env::temp_dir().join(format!("bench-cli-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("bad.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_fig9"))
        .args(["--smoke", "--faults", "at=5000,page=16", "--trace"])
        .arg(&trace)
        .output()
        .expect("fig9 runs");
    let created = trace.exists();
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("page=16"), "must name the clause: {stderr}");
    assert!(!created, "the trace file was created");
}

#[test]
fn fault_count_above_the_cap_exits_2_naming_the_clause_and_cap() {
    let clause = format!("count={}", cgra_arch::FaultSpec::MAX_COUNT + 1);
    let out = Command::new(env!("CARGO_BIN_EXE_fig9"))
        .args([
            "--smoke",
            "-j",
            "1",
            "--faults",
            &format!("mtbf=1,{clause}"),
        ])
        .output()
        .expect("fig9 runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(&clause), "must name the clause: {stderr}");
    assert!(
        stderr.contains(&format!(
            "at most {} faults",
            cgra_arch::FaultSpec::MAX_COUNT
        )),
        "must name the cap: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no curve may be printed");
}

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    for (bin, args, bad) in [
        (
            env!("CARGO_BIN_EXE_fig9"),
            &["--smoke", "--fault", "mtbf=20000,count=4", "-j", "2"][..],
            "--fault",
        ),
        (
            env!("CARGO_BIN_EXE_cgra-lint"),
            &["--pages", "2"][..],
            "--pages",
        ),
        (env!("CARGO_BIN_EXE_fig8"), &["--stirct"][..], "--stirct"),
        (env!("CARGO_BIN_EXE_report"), &["--smoke"][..], "--smoke"),
        // A removed flag is unknown, not silently ignored.
        (
            env!("CARGO_BIN_EXE_fig8"),
            &["--no-cache"][..],
            "--no-cache",
        ),
        (
            env!("CARGO_BIN_EXE_report"),
            &["--no-cache"][..],
            "--no-cache",
        ),
    ] {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag \"{bad}\"")),
            "{bin} must name {bad}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed output");
    }
}

/// A valued flag never takes the next flag as its value, and a flag given
/// twice (`-j` and `--jobs` are one flag) is not resolved silently: each
/// exits 2 naming the flag, before any output and before any file is
/// written.
#[test]
fn missing_values_and_repeated_flags_exit_2_naming_the_flag() {
    let dir = std::env::temp_dir().join(format!("bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (bin, args, names) in [
        (
            env!("CARGO_BIN_EXE_fig8"),
            &["--trace", "--metrics"][..],
            &["--trace", "missing"][..],
        ),
        (
            env!("CARGO_BIN_EXE_fig9"),
            &["--smoke", "--trace", "-j", "2"][..],
            &["--trace", "missing"][..],
        ),
        (
            env!("CARGO_BIN_EXE_cgra-lint"),
            &["--dim", "4", "--dim", "8"][..],
            &["--dim", "more than once"][..],
        ),
        (
            env!("CARGO_BIN_EXE_report"),
            &["-j", "1", "--jobs", "2"][..],
            &["--jobs", "more than once"][..],
        ),
    ] {
        let out = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        for name in names {
            assert!(
                stderr.contains(name),
                "{bin} {args:?} must name {name}: {stderr}"
            );
        }
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed output");
    }
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("temp dir")
        .map(|e| e.expect("entry").file_name())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(written.is_empty(), "files written: {written:?}");
}
