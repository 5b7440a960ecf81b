//! Readiness waits without an async runtime: the event loop and the
//! accept thread block in `poll(2)` on their sockets plus a
//! [`Doorbell`], which other threads ring when they hand a waiting
//! thread work that no socket announces (a resolved ticket, a routed
//! connection, a replicated write, shutdown).
//!
//! The module holds the crate's only `unsafe`: one call into libc's
//! `poll`, which std already links. On non-unix targets a wait is a
//! 500 µs sleep and ringing does nothing.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[cfg(unix)]
use std::io::{Read, Write};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::time::Instant;

/// What a [`PollSet`] can watch: anything with a file descriptor on
/// unix, anything at all elsewhere (where waits only sleep).
#[cfg(unix)]
pub(crate) use std::os::fd::AsRawFd as Source;
#[cfg(not(unix))]
pub(crate) trait Source {}
#[cfg(not(unix))]
impl<T: ?Sized> Source for T {}

/// Wakes the thread that owns it (an event loop, or a server's accept
/// thread) out of its readiness wait.
///
/// A non-blocking socket pair: [`Doorbell::ring`] writes one byte, the
/// owner polls the other end. Rings are coalesced: only the first ring
/// since the owner last re-armed the bell writes, and the owner
/// re-arms it only when it goes to sleep, so a storm of completions
/// costs one byte per sleep and the pair's buffer can never fill.
/// Clones share one bell.
#[derive(Clone)]
pub struct Doorbell(Arc<Bell>);

struct Bell {
    /// Set by the first ring since the owner last cleared the bell.
    rung: AtomicBool,
    #[cfg(unix)]
    rx: UnixStream,
    #[cfg(unix)]
    tx: UnixStream,
}

impl std::fmt::Debug for Doorbell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Doorbell")
            .field("rung", &self.0.rung.load(Ordering::Relaxed))
            .finish()
    }
}

impl Doorbell {
    /// A fresh, unrung bell.
    pub(crate) fn new() -> io::Result<Doorbell> {
        #[cfg(unix)]
        let (rx, tx) = UnixStream::pair()?;
        #[cfg(unix)]
        {
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
        }
        Ok(Doorbell(Arc::new(Bell {
            rung: AtomicBool::new(false),
            #[cfg(unix)]
            rx,
            #[cfg(unix)]
            tx,
        })))
    }

    /// Wake the owner: its current (or next) wait returns at once.
    /// Ring *after* publishing whatever the owner should find.
    pub fn ring(&self) {
        if !self.0.rung.swap(true, Ordering::AcqRel) {
            // Both ends live as long as any clone of the bell, so the
            // write cannot hit a closed peer; a full buffer
            // (impossible with one byte per sleep) would only mean the
            // owner is already due to wake.
            #[cfg(unix)]
            let _ = (&self.0.tx).write(&[1]);
        }
    }

    /// Owner side, after a wait reported the bell: drain its byte and
    /// re-arm it, *before* the sweep that looks for the work. A ring
    /// that lands before the re-arm skipped its write, but published
    /// its work first, so that sweep sees it; any later ring writes a
    /// new byte. The re-arm is a swap rather than a store so that it
    /// acquires every ring that skipped its write.
    pub(crate) fn clear(&self) {
        #[cfg(unix)]
        {
            let mut sink = [0u8; 64];
            while matches!((&self.0.rx).read(&mut sink), Ok(n) if n > 0) {}
        }
        self.0.rung.swap(false, Ordering::AcqRel);
    }
}

/// The set of sources one wait watches; rebuilt before every wait.
pub(crate) struct PollSet {
    #[cfg(unix)]
    fds: Vec<sys::PollFd>,
}

impl PollSet {
    pub(crate) fn new() -> PollSet {
        PollSet {
            #[cfg(unix)]
            fds: Vec::new(),
        }
    }

    /// Forget every watched source.
    pub(crate) fn clear(&mut self) {
        #[cfg(unix)]
        self.fds.clear();
    }

    /// Watch `source` for readability and/or writability; returns its
    /// slot for [`PollSet::readable`]. Leave out sources that want
    /// neither: `poll` reports hang-ups and errors whatever the
    /// interest, so such a source would wake every wait at once.
    pub(crate) fn push(&mut self, source: &impl Source, read: bool, write: bool) -> usize {
        #[cfg(unix)]
        {
            let events = if read { sys::POLLIN } else { 0 } | if write { sys::POLLOUT } else { 0 };
            self.fds.push(sys::PollFd {
                fd: source.as_raw_fd(),
                events,
                revents: 0,
            });
            self.fds.len() - 1
        }
        #[cfg(not(unix))]
        {
            let _ = (source, read, write);
            0
        }
    }

    /// Watch `bell` (its owner's end); returns its slot.
    pub(crate) fn push_bell(&mut self, bell: &Doorbell) -> usize {
        #[cfg(unix)]
        let source = &bell.0.rx;
        #[cfg(not(unix))]
        let source = bell;
        self.push(source, true, false)
    }

    /// Block until a watched source is ready or `timeout` passes
    /// (`None`: no limit); returns how many sources are ready. The
    /// timeout is rounded *up* to whole milliseconds, so a sub-ms
    /// deadline waits instead of spinning, and an interrupted wait
    /// resumes with what is left of it.
    #[cfg(unix)]
    pub(crate) fn wait(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        loop {
            let ms = deadline.map_or(-1, |d| {
                ceil_millis(d.saturating_duration_since(Instant::now()))
            });
            match sys::poll_fds(&mut self.fds, ms) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => return other,
            }
        }
    }

    /// Non-unix stand-in: sleep 500 µs (or less, to meet `timeout`).
    #[cfg(not(unix))]
    pub(crate) fn wait(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
        let nap = timeout.map_or(Duration::from_micros(500), |t| {
            t.min(Duration::from_micros(500))
        });
        if !nap.is_zero() {
            std::thread::sleep(nap);
        }
        Ok(0)
    }

    /// Whether the last wait found the source in `slot` readable:
    /// data, end of stream or an error, each of which a read reports.
    #[cfg(unix)]
    pub(crate) fn readable(&self, slot: usize) -> bool {
        let ready = sys::POLLIN | sys::POLLHUP | sys::POLLERR | sys::POLLNVAL;
        self.fds.get(slot).is_some_and(|fd| fd.revents & ready != 0)
    }

    /// Non-unix stand-in: after a nap, any source may be ready.
    #[cfg(not(unix))]
    pub(crate) fn readable(&self, _slot: usize) -> bool {
        true
    }
}

/// `d` in whole milliseconds, rounded up, saturating at `c_int::MAX`.
#[cfg(unix)]
fn ceil_millis(d: Duration) -> std::os::raw::c_int {
    let ms = d.as_nanos().div_ceil(1_000_000);
    ms.min(std::os::raw::c_int::MAX as u128) as std::os::raw::c_int
}

#[cfg(unix)]
mod sys {
    use std::io;
    use std::os::raw::{c_int, c_short};

    pub(super) const POLLIN: c_short = 0x1;
    pub(super) const POLLOUT: c_short = 0x4;
    pub(super) const POLLERR: c_short = 0x8;
    pub(super) const POLLHUP: c_short = 0x10;
    pub(super) const POLLNVAL: c_short = 0x20;

    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;

    /// `struct pollfd`.
    #[repr(C)]
    pub(super) struct PollFd {
        pub(super) fd: c_int,
        pub(super) events: c_short,
        pub(super) revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// `poll(2)` over `fds`; `timeout_ms < 0` waits without limit.
    #[allow(unsafe_code)]
    pub(super) fn poll_fds(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<usize> {
        // SAFETY: `fds` is an exclusively borrowed slice of
        // `#[repr(C)]` pollfd records and `nfds` is its exact length,
        // so the kernel reads and writes only inside it; `poll` keeps
        // no pointer past its return. A stale or closed fd is not
        // undefined behaviour: the kernel reports it as POLLNVAL.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn wait_reports_timeout_data_and_hangup_on_a_socket_pair() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut set = PollSet::new();
        set.push(&a, true, false);

        let start = Instant::now();
        assert_eq!(set.wait(Some(Duration::from_millis(20))).unwrap(), 0);
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert!(!set.readable(0));

        (&b).write_all(b"x").unwrap();
        assert_eq!(set.wait(Some(Duration::from_secs(5))).unwrap(), 1);
        assert_eq!(set.fds[0].revents & sys::POLLIN, sys::POLLIN);
        assert!(set.readable(0));

        let mut sink = [0u8; 1];
        (&a).read_exact(&mut sink).unwrap();
        drop(b);
        assert_eq!(set.wait(Some(Duration::from_secs(5))).unwrap(), 1);
        assert_ne!(set.fds[0].revents & (sys::POLLHUP | sys::POLLIN), 0);
        assert!(set.readable(0));
    }

    #[test]
    fn write_interest_reports_room() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut set = PollSet::new();
        set.push(&a, false, true);
        assert_eq!(set.wait(Some(Duration::from_secs(5))).unwrap(), 1);
        assert_eq!(set.fds[0].revents, sys::POLLOUT);
        assert!(!set.readable(0));
    }

    #[test]
    fn sub_millisecond_timeouts_round_up() {
        assert_eq!(ceil_millis(Duration::ZERO), 0);
        assert_eq!(ceil_millis(Duration::from_nanos(1)), 1);
        assert_eq!(ceil_millis(Duration::from_micros(1_001)), 2);
        assert_eq!(ceil_millis(Duration::MAX), std::os::raw::c_int::MAX);
    }

    #[test]
    fn rings_coalesce_and_clear_rearms() {
        let bell = Doorbell::new().unwrap();
        let mut set = PollSet::new();
        set.push_bell(&bell);
        assert_eq!(set.wait(Some(Duration::ZERO)).unwrap(), 0);

        bell.ring();
        bell.clone().ring();
        assert_eq!(set.wait(Some(Duration::from_secs(5))).unwrap(), 1);
        assert!(set.readable(0));
        bell.clear();
        assert_eq!(
            set.wait(Some(Duration::ZERO)).unwrap(),
            0,
            "one byte per sleep"
        );

        bell.ring();
        assert_eq!(
            set.wait(Some(Duration::from_secs(5))).unwrap(),
            1,
            "re-armed"
        );
    }
}
