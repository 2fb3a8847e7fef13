//! Reproduces **Table 1** — "Configurations used in microprocessor study".
//!
//! Prints every parameter with its value domain and verifies the canonical
//! lattice holds exactly 4608 configurations per benchmark.

use cpusim::DesignSpace;
use dse::report::try_render_table;
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::exit_status(run())
}

fn run() -> fault::Result<()> {
    let (_, _, _run) = bench::banner("Table 1: configurations used in microprocessor study", &[])?;
    let rows: Vec<Vec<String>> = vec![
        vec!["L1 Data Cache Size".into(), "16, 32, 64 KB".into()],
        vec!["L1 Data Cache Line Size".into(), "32, 64 B".into()],
        vec!["L1 Data Cache Associativity".into(), "4".into()],
        vec!["L1 Instruction Cache Size".into(), "16, 32, 64 KB".into()],
        vec!["L1 Instruction Cache Line Size".into(), "32, 64 B".into()],
        vec!["L1 Instruction Cache Assoc.".into(), "4".into()],
        vec!["L2 Cache Size".into(), "256, 1024 KB".into()],
        vec!["L2 Cache Line Size".into(), "128 B".into()],
        vec!["L2 Cache Associativity".into(), "4, 8".into()],
        vec!["L3 Cache Size".into(), "0, 8 MB".into()],
        vec!["L3 Cache Line Size".into(), "0, 256 B".into()],
        vec!["L3 Cache Associativity".into(), "0, 8".into()],
        vec![
            "Branch Predictor".into(),
            "Perfect, Bimodal, 2-level, Combination".into(),
        ],
        vec!["Decode/Issue/Commit Width".into(), "4, 8".into()],
        vec!["Issue wrong".into(), "Yes, No".into()],
        vec!["Register Update unit".into(), "128, 256".into()],
        vec!["Load/Store queue".into(), "64, 128".into()],
        vec!["Instruction TLB size".into(), "256, 1024 KB".into()],
        vec!["Data TLB size".into(), "512, 2048 KB".into()],
        vec![
            "Functional Units (ialu/imult/memport/fpalu/fpmult)".into(),
            "4/2/2/4/2, 8/4/4/8/4".into(),
        ],
    ];
    print!(
        "{}",
        try_render_table(&["Parameters".into(), "Values".into()], &rows)?
    );

    let space = DesignSpace::table1();
    println!(
        "\nEnumerated design space: {} configurations per benchmark (paper: 4608)",
        space.len()
    );
    assert_eq!(space.len(), 4608, "lattice must match the paper exactly");
    println!("OK: lattice matches the paper's count exactly.");
    Ok(())
}
