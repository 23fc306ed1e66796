//! The paper's figures, pinned byte for byte.
//!
//! Runs every paper-reproduction binary (Table 1 and Figure 6 plain and
//! over WAN links, Figures 4 and 5, the ablations), writes each run's
//! stdout under a `$ command` header, and compares the whole text with
//! `tests/golden/paper_bins.txt`. Every number they print is virtual time
//! or a count, so any difference is a change in what the simulated grid
//! does. A deliberate move regenerates the file in its own commit:
//! `UPDATE_GOLDEN=1 cargo test -p gridfed-bench --test paper_bins`.

use std::path::PathBuf;
use std::process::Command;

/// Every invocation the golden records, in its order.
const RUNS: [(&str, &str, &[&str]); 7] = [
    (
        "table1_query_response",
        env!("CARGO_BIN_EXE_table1_query_response"),
        &[],
    ),
    (
        "table1_query_response",
        env!("CARGO_BIN_EXE_table1_query_response"),
        &["--wan"],
    ),
    (
        "fig4_etl_source_to_warehouse",
        env!("CARGO_BIN_EXE_fig4_etl_source_to_warehouse"),
        &[],
    ),
    (
        "fig5_warehouse_to_marts",
        env!("CARGO_BIN_EXE_fig5_warehouse_to_marts"),
        &[],
    ),
    (
        "fig6_row_scaling",
        env!("CARGO_BIN_EXE_fig6_row_scaling"),
        &[],
    ),
    (
        "fig6_row_scaling",
        env!("CARGO_BIN_EXE_fig6_row_scaling"),
        &["--wan"],
    ),
    ("ablations", env!("CARGO_BIN_EXE_ablations"), &[]),
];

const REGENERATE: &str = "UPDATE_GOLDEN=1 cargo test -p gridfed-bench --test paper_bins";

#[test]
fn paper_binaries_print_the_golden() {
    let mut text = String::new();
    for (name, exe, args) in RUNS {
        let command = std::iter::once(name)
            .chain(args.iter().copied())
            .collect::<Vec<_>>()
            .join(" ");
        let out = Command::new(exe)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("`{command}` does not start: {e}"));
        assert!(
            out.status.success(),
            "`{command}` exited with {}:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        text.push_str(&format!("$ {command}\n"));
        text.push_str(std::str::from_utf8(&out.stdout).expect("stdout is UTF-8"));
    }

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/paper_bins.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("a parent")).expect("mkdir golden");
        std::fs::write(&path, &text).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with {REGENERATE}",
            path.display()
        )
    });
    if let Some((at, (got, want))) = text
        .lines()
        .chain(std::iter::repeat("<end of output>"))
        .zip(expected.lines().chain(std::iter::repeat("<end of golden>")))
        .enumerate()
        .take(text.lines().count().max(expected.lines().count()))
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "paper binaries differ from {} at line {}:\n  golden: {want}\n  now:    {got}\n\
             regenerate with {REGENERATE} if the move is deliberate",
            path.display(),
            at + 1
        );
    }
    assert_eq!(
        text, expected,
        "line endings differ; regenerate with {REGENERATE}"
    );
}
