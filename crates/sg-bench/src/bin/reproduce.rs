//! `reproduce [--table ID]`: prints the paper's tables and figures from the
//! registry in `sg_bench::tables` on the paper-scale graphs — every table
//! when no id is given. Exits 1 when a table reports a violated check and
//! 2 on a usage error.
//!
//! Run: `cargo run --release -p sg-bench --bin reproduce [-- --table tab5]`

use sg_bench::tables::{paper_graph, producer, TABLES};
use std::process::exit;

fn main() {
    let all: Vec<&str> = TABLES.iter().map(|&(id, _)| id).collect();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids = match args.as_slice() {
        [] => all,
        [flag, id] if flag == "--table" && producer(id).is_some() => vec![id.as_str()],
        _ => {
            eprintln!("usage: reproduce [--table ID]  (ID: {})", all.join(", "));
            exit(2);
        }
    };
    let mut violations = 0;
    for id in ids {
        println!("# {id}\n");
        for table in producer(id).expect("id is in the registry")(&paper_graph) {
            print!("{}", table.render(true));
            violations += table.violations();
        }
    }
    if violations > 0 {
        eprintln!("reproduce: {violations} violated check(s)");
        exit(1);
    }
}
