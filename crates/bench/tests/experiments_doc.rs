//! EXPERIMENTS.md's generated tables against the `report` binary.
//!
//! A block of EXPERIMENTS.md between
//! `<!-- begin report: NAME -->` and `<!-- end report: NAME -->` holds
//! exactly what `report` prints in its section NAME: the text of a `##`
//! heading, or `H2 / H3` for a `###` heading under the `##` heading
//! `H2`, without the heading line and the blank lines around the body.
//! The test runs `report -j 2` and diffs every block against its
//! section. If a change to the figures is intentional, rewrite the blocks
//! with `UPDATE_GOLDEN=1 cargo test --release -p cgra-bench --test
//! experiments_doc`.

use std::path::PathBuf;
use std::process::Command;

/// The sections EXPERIMENTS.md must carry as blocks.
const MARKED: [&str; 8] = [
    "Figure 8 — performance impact of the paging constraints / Geometric means (performance %, 100 = no loss)",
    "Figure 9 — multithreading improvement / 4x4 CGRA",
    "Figure 9 — multithreading improvement / 6x6 CGRA",
    "Figure 9 — multithreading improvement / 8x8 CGRA",
    "Figure 9 — multithreading improvement / Headline (paper: >30% / >75% / >150% on 4x4 / 6x6 / 8x8)",
    "Figure 9 lower bound — the ceiling at 8 and 16 threads",
    "Ablation A1 — switch-transformation overhead (8x8/p4, 8 threads, 87.5% need)",
    "Ablation A2 — expansion policy (8x8/p4, 8 threads, 87.5% need)",
];

/// `report`'s sections in order: `(name, body)`, the body trimmed of
/// blank lines at both ends.
fn sections(report: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, Vec<&str>)> = Vec::new();
    let mut h2 = String::new();
    for line in report.lines() {
        if let Some(title) = line.strip_prefix("## ") {
            h2 = title.to_string();
            out.push((h2.clone(), Vec::new()));
        } else if let Some(title) = line.strip_prefix("### ") {
            out.push((format!("{h2} / {title}"), Vec::new()));
        } else if let Some((_, body)) = out.last_mut() {
            body.push(line);
        }
    }
    out.into_iter()
        .map(|(name, body)| (name, trim_blank(&body).join("\n")))
        .collect()
}

fn trim_blank<'a>(lines: &'a [&'a str]) -> &'a [&'a str] {
    let start = lines.iter().position(|l| !l.trim().is_empty());
    let end = lines.iter().rposition(|l| !l.trim().is_empty());
    match (start, end) {
        (Some(s), Some(e)) => &lines[s..=e],
        _ => &[],
    }
}

/// `doc` with every block refilled from `sections`, and the names of the
/// blocks whose text changed.
fn refill(doc: &str, sections: &[(String, String)]) -> (String, Vec<String>) {
    let (mut out, mut changed) = (String::new(), Vec::new());
    let mut lines = doc.lines();
    while let Some(line) = lines.next() {
        out.push_str(line);
        out.push('\n');
        let Some(name) = marker(line, "begin") else {
            continue;
        };
        let body = &sections
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("report prints no section named {name:?}"))
            .1;
        let mut old = Vec::new();
        loop {
            match lines.next() {
                Some(l) if marker(l, "end") == Some(name) => break,
                Some(l) => old.push(l),
                None => panic!("block {name:?} has no end marker"),
            }
        }
        if old.join("\n") != *body {
            changed.push(name.to_string());
        }
        out.push_str(body);
        out.push_str(&format!("\n<!-- end report: {name} -->\n"));
    }
    (out, changed)
}

/// The NAME of a `<!-- {kind} report: NAME -->` line.
fn marker<'a>(line: &'a str, kind: &str) -> Option<&'a str> {
    line.strip_prefix(&format!("<!-- {kind} report: "))?
        .strip_suffix(" -->")
}

#[test]
fn experiments_blocks_match_report() {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["-j", "2"])
        .output()
        .expect("report runs");
    assert!(out.status.success(), "report failed: {out:?}");
    let sections = sections(&String::from_utf8(out.stdout).expect("utf-8 report"));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path).expect("EXPERIMENTS.md");
    for name in MARKED {
        let begin = format!("<!-- begin report: {name} -->");
        assert!(
            doc.lines().any(|l| l == begin),
            "EXPERIMENTS.md has no block {name:?}"
        );
    }
    let (refilled, changed) = refill(&doc, &sections);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, refilled).expect("EXPERIMENTS.md written");
        return;
    }
    assert!(
        changed.is_empty(),
        "EXPERIMENTS.md blocks differ from report: {changed:?}; if intentional, rerun with \
         UPDATE_GOLDEN=1"
    );
}
