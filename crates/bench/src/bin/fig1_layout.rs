//! Figure 1 reproduction: the 256-bit memory capability layout, shown by
//! serialising a real capability and annotating its words.

use cheri_core::{Capability, Perms};

fn main() {
    println!("== Figure 1: Memory capability (256 bits) ==\n");
    println!("  permissions (31 bits) | reserved (97 bits)");
    println!("  base   (64 bits)");
    println!("  length (64 bits)\n");

    // The base fits the 128-bit format's 40-bit addresses
    // (`cheri_core::compress::VADDR_BITS`), so the compressed form
    // printed below exists.
    let cap = Capability::new(
        0x0000_0034_5678_9000,
        0x1000,
        Perms::LOAD | Perms::STORE | Perms::LOAD_CAP,
    )
    .expect("valid region");
    let bytes = cap.to_bytes();
    println!("example: {cap}");
    println!("tag (out of band, in the tag table): {}", u8::from(cap.tag()));
    let fields = ["perms+reserved", "reserved", "base", "length"];
    for (i, name) in fields.iter().enumerate() {
        let w = u64::from_be_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        println!("  word {i} ({name:<15}): {w:#018x}");
    }
    let restored = Capability::from_bytes(&bytes, cap.tag());
    assert_eq!(restored, cap, "round-trip must be exact");
    println!("\nround-trip through the 256-bit image: exact");
    println!(
        "compressed 128-bit form (Section 7's '128b CHERI'): {}",
        cheri_core::Compressed128::try_from_cap(&cap).expect("aligned region")
    );
}
