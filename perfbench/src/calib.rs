//! The host-speed probe: a fixed amount of work that uses none of the
//! repository's code.
//!
//! The benchmark's host is a shared VM whose speed drifts by ±20 % over
//! tens of seconds and by up to 2× within an hour. `run.py` times this
//! probe from outside after every timed `gpures` run and reports each time
//! at a reference host speed: the run's median time, scaled by the
//! reference probe time over the probe's median time. A change to the
//! program cannot move the probe, so every change the program makes still
//! shows in full, while most of the host's drift cancels.
//!
//! The work resembles the program's: it writes syslog-shaped lines into a
//! buffer, scans them for an XID marker, parses a field, counts lines in a
//! hash map, and sorts. The text, the map and the sorted values each
//! outgrow the last-level cache, as the program's corpora and record
//! tables do, so the probe slows down when the host's memory system is
//! contended, not only when its cores are. `threads` copies run at once,
//! one per worker of the timed command.

use std::collections::HashMap;
use std::hint::black_box;

/// Bytes of generated text each thread scans per round.
const TEXT_BYTES: usize = 24 << 20;

/// Values each thread sorts per round.
const SORT_LEN: usize = 2 << 20;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Syslog-shaped text: three in four lines carry an XID.
fn text(state: &mut u64) -> Vec<u8> {
    let mut text = Vec::with_capacity(TEXT_BYTES + 256);
    while text.len() < TEXT_BYTES {
        let r = xorshift(state);
        let node = r % 206;
        let pid = (r >> 16) % 100_000;
        let line = if r >> 60 < 12 {
            format!(
                "Mar  {} 12:{:02}:{:02} node{node:04} kernel: NVRM: Xid (PCI:0000:{:02x}:00): {}, pid={pid}, name=python\n",
                r % 9 + 1,
                (r >> 4) % 60,
                (r >> 10) % 60,
                (r >> 24) % 256,
                (r >> 8) % 128,
            )
        } else {
            format!(
                "Mar  1 12:00:00 node{node:04} systemd[1]: Started session {pid} of user slurm.\n"
            )
        };
        text.extend_from_slice(line.as_bytes());
    }
    text
}

/// One thread's share of the probe; returns a checksum.
fn kernel(seed: u64, rounds: u32) -> u64 {
    let mut state = seed | 1;
    let mut sum = 0u64;
    for _ in 0..rounds {
        let text = text(&mut state);
        let mut counts: HashMap<(usize, u64, u64), u64> = HashMap::new();
        for line in text.split(|b| *b == b'\n') {
            let Some(at) = line.windows(9).position(|w| w == b"NVRM: Xid") else {
                continue;
            };
            let mut xid = 0u64;
            for b in line[at + 10..]
                .iter()
                .skip_while(|b| **b != b':')
                .skip(1)
                .skip_while(|b| !b.is_ascii_digit())
                .take_while(|b| b.is_ascii_digit())
            {
                xid = xid * 10 + u64::from(b - b'0');
            }
            let hash = line.iter().fold(0u64, |h, b| {
                (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3)
            });
            *counts.entry((line.len(), xid, hash)).or_default() += 1;
        }
        let mut values: Vec<u64> = (0..SORT_LEN).map(|_| xorshift(&mut state)).collect();
        values.sort_unstable();
        sum = sum
            .wrapping_add(counts.len() as u64)
            .wrapping_add(counts.keys().map(|k| k.1).sum::<u64>())
            .wrapping_add(values[SORT_LEN / 2]);
    }
    black_box(sum)
}

/// Run the probe on `threads` threads at once; returns a checksum that is
/// the same on every run with the same arguments.
pub fn probe(threads: usize, rounds: u32) -> u64 {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|t| s.spawn(move || kernel(0x9e37_79b9 + t as u64, rounds)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .fold(0, u64::wrapping_add)
    })
}
