//! The `cgra-mt` binary rejects a bad flag value with exit status 2 and
//! a message naming the flag, instead of a silent default or a panic.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cgra-mt"))
        .args(args)
        .output()
        .expect("cgra-mt runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_flag_values_exit_2_naming_the_flag() {
    let cases: [(&[&str], &str); 11] = [
        (&["shrink", "builtin:fir", "--pages", "abc"], "--pages"),
        (&["shrink", "builtin:fir", "--pages", "0"], "--pages"),
        (&["shrink", "builtin:fir", "--pages", "99"], "--pages"),
        // fir occupies 2 of the default fabric's 4 pages: shrinking to 4
        // would grow it.
        (&["shrink", "builtin:fir", "--pages", "4"], "--pages"),
        (&["exec", "builtin:fir", "--iters", "0"], "--iters"),
        (&["analyze", "builtin:fir", "--cgra", "x"], "--cgra"),
        (&["exec", "builtin:fir", "--iters", "-5"], "--iters"),
        // Above the cap: the machine would hold ~10^11 iterations' events.
        (
            &["exec", "builtin:fir", "--iters", "99999999999"],
            "--iters",
        ),
        (&["analyze", "builtin:fir", "--cgra", "0"], "--cgra"),
        (&["analyze", "builtin:fir", "--cgra", "300"], "--cgra"),
        (
            &["analyze", "builtin:fir", "--page-size", "3"],
            "--page-size",
        ),
    ];
    for (args, flag) in cases {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        let value = args[3];
        assert!(
            stderr.contains(value),
            "{args:?} must name {value}: {stderr}"
        );
    }
}

#[test]
fn good_flags_still_run() {
    let (code, stderr) = run(&["shrink", "builtin:fir", "--pages", "2"]);
    assert_eq!(code, Some(0), "{stderr}");
}

/// Each command takes only its own flags and arguments: any other flag
/// or a stray argument exits 2 naming it and listing what the command
/// takes, a flag that takes a value says when the value is missing, and
/// a flag given twice exits 2 naming it.
#[test]
fn unknown_flags_stray_arguments_and_missing_values_exit_2() {
    let cases: [(&[&str], &[&str]); 6] = [
        // Underscore for dash: not `--page-size`, so not silently the
        // default 4-PE pages.
        (
            &["map", "builtin:fir", "--page_size", "2"],
            &["--page_size", "--page-size", "--mode", "--placements"],
        ),
        (&["map", "builtin:fir", "--bogus"], &["--bogus", "--cgra"]),
        (&["map", "builtin:fir", "extra"], &["\"extra\"", "<kernel>"]),
        (&["kernels", "extra"], &["\"extra\"", "no arguments"]),
        (&["map", "builtin:fir", "--cgra"], &["--cgra", "missing"]),
        (
            &["analyze", "builtin:fir", "--cgra", "4", "--cgra", "6"],
            &["--cgra", "more than once"],
        ),
    ];
    for (args, names) in cases {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        for name in names {
            assert!(stderr.contains(name), "{args:?} must name {name}: {stderr}");
        }
    }
}
