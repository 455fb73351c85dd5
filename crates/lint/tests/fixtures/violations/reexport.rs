// Fixture: orphan-pub — a `mod` line and a re-export say where an item lives; neither
// calls it, so an item they alone name is still a finding.
mod reexported;
pub use reexported::reexported;

pub fn reexported(x: u64) -> u64 {
    x
}
