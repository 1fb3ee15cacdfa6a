//! Known-answer pins for the hash and the KDF. Every key the simulated
//! homes use — firmware signatures, credential hashes, sealed storage,
//! event MACs and DPI tokens — flows through these two functions, so a
//! change to either that alters a single output bit fails here. The
//! constants were computed independently of the current `update`, by
//! the buffered implementation it replaced.

use xlf_lwcrypto::hash::LightHash;
use xlf_lwcrypto::kdf::derive_key;

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A deterministic, non-repeating-looking input of `len` bytes.
fn input(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(31) + 7) as u8).collect()
}

#[test]
fn light_hash_digests_are_pinned_for_every_length_up_to_300() {
    let mut all = Vec::new();
    for len in 0..=300 {
        let data = input(len);
        let digest = LightHash::digest(&data);
        // Uneven streamed chunks reach the same digest as one shot, so
        // every tail length meets every block boundary.
        for chunk in [1, 7, 13, 16, 17] {
            let mut h = LightHash::new();
            for part in data.chunks(chunk) {
                h.update(part);
            }
            assert_eq!(h.finalize(), digest, "len {len}, chunks of {chunk}");
        }
        all.extend_from_slice(&digest);
    }
    assert_eq!(format!("{:016x}", fnv64(&all)), "053ba99f6d8ceffb");
    assert_eq!(
        hex(&LightHash::digest(b"")),
        "7c84869c9d4a36e498b90f1f7d7fa95a9d64326a3205f879f549345091714379"
    );
    assert_eq!(
        hex(&LightHash::digest(&input(300))),
        "f15f9f4f8a967b8625c8630a364e52c2c4a1aa83a4dbaba2a8916517004a63aa"
    );
}

#[test]
fn light_hash_of_64_kib_is_pinned() {
    assert_eq!(
        hex(&LightHash::digest(&input(64 * 1024))),
        "8db983829b4c228b046c11754620eafe10634c9a34aacf1fb4b255232b83974b"
    );
}

#[test]
fn derive_key_is_pinned() {
    assert_eq!(
        hex(&derive_key(b"home master secret", "dpi/cam", 16).unwrap()),
        "471287e5305b82407324b6aca7a09a2f"
    );
    assert_eq!(
        hex(&derive_key(b"hub secret", "event-key/thermo", 16).unwrap()),
        "73ff0609996c0d64e59c20b69d5e233b"
    );
    assert_eq!(
        hex(&derive_key(b"lamp-device-secret", "storage-at-rest", 48).unwrap()),
        "6c8b65db8dcb268eaa369510c54aafd3a6c7aa1a03a44a87edd8fd2d8e3295e66615ef80efae3c01244fbdcea6bf19f2"
    );
}
