//! Property tests of the runtime's byte-level machinery: every codec
//! survives arbitrary values, slots reject every corruption that could
//! masquerade as a landed entry, and rings deliver arbitrary workloads
//! in order.

use hamband_core::counts::DepMap;
use hamband_core::demo::{Account, AccountUpdate};
use hamband_core::ids::{MethodId, Pid, Rid};
use hamband_runtime::codec::{summary_records, Entry, SummarySlot, CANARY_TRAILER};
use proptest::prelude::*;

fn arb_deps() -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    prop::collection::vec((0..7usize, 0..4usize, 1..1_000_000u64), 0..6)
}

fn arb_update() -> impl Strategy<Value = AccountUpdate> {
    prop_oneof![
        (1..u64::MAX / 2).prop_map(Account::deposit),
        (1..u64::MAX / 2).prop_map(Account::withdraw),
    ]
}

/// A summary log as its source writes it: one record per deposit in
/// `amounts`, versions rising by one from `first` (a one-method group,
/// so each record's count is its version). Returns the log and each
/// record's bytes.
fn log_of(amounts: &[u64], first: u64) -> (Vec<u8>, Vec<Vec<u8>>) {
    let records: Vec<Vec<u8>> = amounts
        .iter()
        .zip(first..)
        .map(|(&amount, version)| {
            SummarySlot { version, counts: vec![version], summary: Some(Account::deposit(amount)) }
                .to_slot(4096)
        })
        .collect();
    (records.concat(), records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A log torn at any byte — what lies past the tear is zeroes or
    /// garbage — parses to a prefix of its records, and to at least
    /// every record wholly before the tear.
    #[test]
    fn a_torn_log_parses_to_a_prefix_of_its_records(
        amounts in prop::collection::vec(0..u64::MAX / 2, 1..8),
        cut in 0..100_000usize,
        filler in prop::collection::vec(any::<u8>(), 0..160),
    ) {
        let (log, records) = log_of(&amounts, 1);
        let at = cut % (log.len() + 1);
        let mut torn = log[..at].to_vec();
        torn.extend(filler.iter().chain(&[0u8; 64]).take(log.len() + 64 - at));
        let parsed: Vec<&[u8]> = summary_records(&torn, 1, 0).collect();
        prop_assert!(parsed.len() <= records.len());
        for (p, r) in parsed.iter().zip(&records) {
            prop_assert_eq!(*p, &r[..]);
        }
        let whole = records
            .iter()
            .scan(0, |end, r| {
                *end += r.len();
                Some(*end)
            })
            .take_while(|&end| end <= at)
            .count();
        prop_assert!(parsed.len() >= whole, "{} of {} whole records", parsed.len(), whole);
    }

    /// A compaction leaves the older generation's bytes behind the new
    /// log: the walk parses exactly the new log's records, whatever
    /// their lengths and however the old ones lay.
    #[test]
    fn a_log_over_an_older_generation_parses_to_exactly_its_own_records(
        old in prop::collection::vec(0..u64::MAX / 2, 1..16),
        new in prop::collection::vec(0..u64::MAX / 2, 1..6),
    ) {
        let (old_log, _) = log_of(&old, 1);
        let (new_log, new_records) = log_of(&new, old.len() as u64 + 1);
        let mut slot = old_log;
        slot.resize(slot.len().max(new_log.len()) + 64, 0);
        slot[..new_log.len()].copy_from_slice(&new_log);
        let parsed: Vec<&[u8]> = summary_records(&slot, 1, 0).collect();
        let expected: Vec<&[u8]> = new_records.iter().map(Vec::as_slice).collect();
        prop_assert_eq!(parsed, expected);
    }

    #[test]
    fn entry_payload_roundtrips(
        issuer in 0..7usize,
        seq in 0..u64::MAX / 2,
        update in arb_update(),
        deps in arb_deps(),
    ) {
        let entry = Entry {
            rid: Rid::new(Pid(issuer), seq),
            update,
            deps: DepMap::from_entries(
                deps.into_iter().map(|(p, m, c)| (Pid(p), MethodId(m), c)),
            ),
        };
        let bytes = entry.encode_payload();
        let back = Entry::<AccountUpdate>::decode_payload(&bytes).unwrap();
        prop_assert_eq!(back, entry);
    }

    #[test]
    fn entry_slot_roundtrips_and_rejects_other_seqs(
        seq in 1..u64::MAX / 2,
        update in arb_update(),
    ) {
        let entry = Entry { rid: Rid::new(Pid(1), 7), update, deps: DepMap::empty() };
        let slot = entry.to_slot(seq, 128);
        prop_assert_eq!(Entry::<AccountUpdate>::from_slot(&slot, seq).unwrap(), entry);
        prop_assert!(Entry::<AccountUpdate>::from_slot(&slot, seq + 1).is_none());
        prop_assert!(Entry::<AccountUpdate>::from_slot(&slot, seq.wrapping_sub(1)).is_none());
    }

    /// A slot whose canary trailer echoes anything but the expected
    /// sequence is invisible, whatever else it contains — the §4
    /// torn-write guard, plus the stale-epoch guard for reused ring
    /// slots (the trailer of a wrapped-over entry echoes an older seq
    /// and must not validate the new one).
    #[test]
    fn slot_without_canary_is_never_visible(
        seq in 1..1_000u64,
        update in arb_update(),
        echo in 0..u64::MAX / 2,
    ) {
        let entry = Entry { rid: Rid::new(Pid(0), 3), update, deps: DepMap::empty() };
        let mut slot = entry.to_slot(seq, 128);
        let tail = slot.len() - CANARY_TRAILER;
        // `0` models a torn trailer (zeroes); other values stale epochs.
        prop_assume!(echo != seq);
        slot[tail..].copy_from_slice(&echo.to_le_bytes());
        prop_assert!(Entry::<AccountUpdate>::from_slot(&slot, seq).is_none());
    }

    /// Arbitrary byte garbage never decodes into a *visible* entry for
    /// the expected sequence number unless it genuinely encodes one.
    #[test]
    fn corrupted_payload_is_dropped_not_misread(
        mut slot in prop::collection::vec(any::<u8>(), 128),
        flip in 10..127usize,
    ) {
        let entry = Entry {
            rid: Rid::new(Pid(1), 9),
            update: Account::deposit(5),
            deps: DepMap::empty(),
        };
        let good = entry.to_slot(4, 128);
        slot.copy_from_slice(&good);
        slot[flip] ^= 0xff;
        // Either invisible or decodes to *some* well-formed entry — but
        // never panics, and never fabricates an out-of-range process.
        if let Some(e) = Entry::<AccountUpdate>::from_slot(&slot, 4) {
            prop_assert!(e.rid.issuer.index() < 1 << 20);
        }
    }

    #[test]
    fn summary_slot_roundtrips(
        version in 1..u64::MAX / 2,
        counts in prop::collection::vec(0..u64::MAX / 2, 1..5),
        update in arb_update(),
    ) {
        let s = SummarySlot { version, counts: counts.clone(), summary: Some(update) };
        let slot = s.to_slot(8 + 8 * counts.len() + 2 + 64 + 8);
        let back = SummarySlot::<AccountUpdate>::from_slot(&slot, counts.len()).unwrap();
        prop_assert_eq!(back, s);
    }

    /// The seqlock check: any mismatch between leading and trailing
    /// version makes the slot unreadable (a concurrent overwrite).
    #[test]
    fn summary_seqlock_mismatch_is_invisible(
        version in 2..1_000u64,
        skew in 1..100u64,
    ) {
        let s = SummarySlot {
            version,
            counts: vec![version],
            summary: Some(Account::deposit(1)),
        };
        let mut slot = s.to_slot(8 + 8 + 2 + 64 + 8);
        let end = slot.len();
        slot[end - 8..].copy_from_slice(&(version - skew % version).to_le_bytes());
        prop_assume!(version - skew % version != version);
        prop_assert!(SummarySlot::<AccountUpdate>::from_slot(&slot, 1).is_none());
    }
}
