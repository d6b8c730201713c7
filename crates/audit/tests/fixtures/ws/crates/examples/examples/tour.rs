//! Root-only fixture: the loader follows this file's calls but reports
//! nothing in it, so `unused_in_example` is no finding.

fn main() {
    mmio_cert::decoy();
    mmio_cert::unreached_helper(None);
    mmio_cert::shown_in_example();
    mmio_serve::default_path();
    mmio_serve::emit_shared_again();
}

fn unused_in_example() {}
