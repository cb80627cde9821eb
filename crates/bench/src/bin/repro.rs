//! The `repro` binary; everything lives in [`vcsql_bench::repro`].

fn main() {
    vcsql_bench::repro::main();
}
