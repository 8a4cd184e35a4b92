//! Golden wire bytes: the encoding of every shipped update enum, of
//! `AccountUpdate` and of `ControlMsg`, pinned as hex.
//!
//! Ring slots and summary slots are fixed-size, so the virtual
//! fingerprints do not see an entry's payload bytes; this table does.
//! A persist log written by one build is replayed by the next, and a
//! cluster may run mixed builds, so these bytes are a format, not an
//! implementation detail.

use std::fmt::Debug;

use hamband::core::wire::{Wire, Writer};
use hamband::runtime::messages::ControlMsg;
use hamband::types::account::AccountUpdate;
use hamband::types::bank::BankUpdate;
use hamband::types::cart::CartUpdate;
use hamband::types::counter::CounterUpdate;
use hamband::types::courseware::CoursewareUpdate;
use hamband::types::gset::GSetUpdate;
use hamband::types::lww::{LwwUpdate, Stamp};
use hamband::types::movie::MovieUpdate;
use hamband::types::orset::OrSetUpdate;
use hamband::types::project::ProjectUpdate;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex")).collect()
}

/// Every value encodes to its hex, the hex decodes to the value, and no
/// strict prefix of the hex decodes at all (a truncated buffer).
fn pinned<T: Wire + PartialEq + Debug>(table: &[(T, &str)]) {
    for (value, golden) in table {
        assert_eq!(hex(&value.to_bytes()), *golden, "encoding of {value:?}");
        let bytes = unhex(golden);
        assert_eq!(T::from_bytes(&bytes).as_ref(), Ok(value), "decoding of {golden}");
        for cut in 0..bytes.len() {
            assert!(
                T::from_bytes(&bytes[..cut]).is_err(),
                "{value:?}: the first {cut} of {} bytes must not decode",
                bytes.len()
            );
        }
    }
}

/// `tag` followed by plenty of well-formed varints is not a `T`.
fn unknown_tag<T: Wire + Debug>(tag: u8) {
    let bytes = [tag, 1, 1, 1, 1, 1];
    assert!(T::from_bytes(&bytes).is_err(), "tag {tag} must be rejected");
}

#[test]
fn account() {
    pinned(&[
        (AccountUpdate::Deposit(0), "0000"),
        (AccountUpdate::Deposit(u64::MAX), "00ffffffffffffffffff01"),
        (AccountUpdate::Withdraw(5), "0105"),
    ]);
    unknown_tag::<AccountUpdate>(2);
}

#[test]
fn bank() {
    pinned(&[
        (BankUpdate::OpenAccounts(vec![]), "0000"),
        (BankUpdate::OpenAccounts(vec![1, 300, u64::MAX]), "000301ac02ffffffffffffffffff01"),
        (BankUpdate::Deposit(9, 1 << 40), "0109808080808020"),
        (BankUpdate::Withdraw(u64::MAX, 7), "02ffffffffffffffffff0107"),
    ]);
    unknown_tag::<BankUpdate>(3);
}

#[test]
fn cart() {
    pinned(&[
        (CartUpdate::Add { item: 7, qty: 1 }, "000701"),
        (CartUpdate::Remove { item: 0, qty: u32::MAX }, "0100ffffffff0f"),
    ]);
    unknown_tag::<CartUpdate>(2);
    // qty = 2^32 does not fit the field: malformed, not truncated to 0.
    let mut w = Writer::new();
    w.u8(0);
    w.varint(7);
    w.varint(1 << 32);
    assert!(CartUpdate::from_bytes(&w.into_vec()).is_err());
}

#[test]
fn counter() {
    pinned(&[
        (CounterUpdate::Add(0), "00"),
        (CounterUpdate::Add(1), "02"),
        (CounterUpdate::Add(-1), "01"),
        (CounterUpdate::Add(-(1 << 40)), "ffffffffff3f"),
        (CounterUpdate::Add(i64::MAX), "feffffffffffffffff01"),
        (CounterUpdate::Add(i64::MIN), "ffffffffffffffffff01"),
    ]);
}

#[test]
fn courseware() {
    pinned(&[
        (CoursewareUpdate::AddCourse(4), "0004"),
        (CoursewareUpdate::DeleteCourse(u64::MAX), "01ffffffffffffffffff01"),
        (CoursewareUpdate::Enroll(1, 4), "020104"),
        (CoursewareUpdate::RegisterStudents(vec![]), "0300"),
        (CoursewareUpdate::RegisterStudents(vec![8, 9, 1 << 33]), "030308098080808020"),
    ]);
    unknown_tag::<CoursewareUpdate>(4);
}

#[test]
fn gset() {
    pinned(&[
        (GSetUpdate::AddAll(vec![]), "00"),
        (GSetUpdate::AddAll(vec![5, 900, 1 << 33]), "030584078080808020"),
        (GSetUpdate::AddAll(vec![u64::MAX]), "01ffffffffffffffffff01"),
    ]);
}

#[test]
fn lww() {
    let w = |time, node, value| LwwUpdate::Write { stamp: Stamp { time, node }, value };
    pinned(&[
        (w(0, 0, 0), "000000"),
        (w(77, 3, 123), "4d037b"),
        (w(u64::MAX, 7, 300), "ffffffffffffffffff0107ac02"),
    ]);
}

#[test]
fn movie() {
    pinned(&[
        (MovieUpdate::AddCustomer(9), "0009"),
        (MovieUpdate::DeleteCustomer(u64::MAX), "01ffffffffffffffffff01"),
        (MovieUpdate::AddMovie(3), "0203"),
        (MovieUpdate::DeleteMovie(128), "038001"),
    ]);
    unknown_tag::<MovieUpdate>(4);
}

#[test]
fn orset() {
    pinned(&[
        (OrSetUpdate::Add { element: 3, tag: (2, 9) }, "00030209"),
        (OrSetUpdate::Remove { element: 3, tags: vec![] }, "010300"),
        (
            OrSetUpdate::Remove { element: u64::MAX, tags: vec![(2, 9), (0, 1 << 20)] },
            "01ffffffffffffffffff0102020900808040",
        ),
    ]);
    unknown_tag::<OrSetUpdate>(2);
}

#[test]
fn project() {
    pinned(&[
        (ProjectUpdate::AddProject(7), "0007"),
        (ProjectUpdate::DeleteProject(u64::MAX), "01ffffffffffffffffff01"),
        (ProjectUpdate::WorksOn(1, 2), "020102"),
        (ProjectUpdate::AddEmployees(vec![]), "0300"),
        (ProjectUpdate::AddEmployees(vec![4, 5, 600]), "03030405d804"),
    ]);
    unknown_tag::<ProjectUpdate>(4);
}

#[test]
fn control_msg() {
    pinned(&[
        (ControlMsg::LeaderRequest { group: 1, epoch: 7 }, "000107"),
        (
            ControlMsg::LeaderRequest { group: u32::MAX, epoch: u64::MAX },
            "00ffffffff0fffffffffffffffffff01",
        ),
        (ControlMsg::LeaderAck { group: 0, epoch: 7, tail: 123, commit: 120 }, "0100077b78"),
        (ControlMsg::LeaderAnnounce { group: 2, epoch: 8, leader: u32::MAX }, "020208ffffffff0f"),
        (ControlMsg::Retired, "03"),
        (ControlMsg::JoinRequest, "04"),
        (ControlMsg::JoinAck { group: 3, epoch: 300, leader: 1 }, "0503ac0201"),
    ]);
    unknown_tag::<ControlMsg>(6);
    // group = 2^32 does not fit the field: malformed, not group 0.
    let mut w = Writer::new();
    w.u8(0);
    w.varint(1 << 32);
    w.varint(7);
    assert!(ControlMsg::from_bytes(&w.into_vec()).is_err());
}
