//! Readiness primitives for the v2 shards: a level-triggered epoll set
//! and an eventfd [`Waker`], declared against the libc that std already
//! links (no crate dependency). Linux only, like the rest of the server.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// Readable, or the peer hung up its write side.
pub const READ: u32 = EPOLLIN | EPOLLRDHUP;
/// Writable.
pub const WRITE: u32 = EPOLLOUT;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2_000_000;
const EFD_CLOEXEC: i32 = 0o2_000_000;
const EFD_NONBLOCK: i32 = 0o4_000;

/// `struct epoll_event`; the kernel packs it on x86-64 only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// Wrap a syscall's returned fd, closed on drop.
fn owned(fd: i32) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: the kernel just returned this fd and nothing else owns it.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// An epoll set whose members are identified by a caller-chosen token.
/// Registrations are level-triggered; a member is removed when its fd
/// closes.
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers.
        Ok(Poller {
            epfd: owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })?,
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        if unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Watch `fd` for `interest` ([`READ`] / [`WRITE`]), reported as `token`.
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replace the interest of a watched fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Block, without a timeout, until a member is ready; replace `ready`
    /// with the ready members' tokens. A signal interruption returns an
    /// empty list.
    pub fn wait(&self, ready: &mut Vec<u64>) -> io::Result<()> {
        const BATCH: usize = 64;
        let mut evs = [EpollEvent { events: 0, data: 0 }; BATCH];
        ready.clear();
        // SAFETY: the kernel writes at most BATCH events into `evs`.
        let n = unsafe { epoll_wait(self.epfd.as_raw_fd(), evs.as_mut_ptr(), BATCH as i32, -1) };
        if n < 0 {
            let e = io::Error::last_os_error();
            return if e.kind() == io::ErrorKind::Interrupted {
                Ok(())
            } else {
                Err(e)
            };
        }
        ready.extend(evs[..n as usize].iter().map(|ev| ev.data));
        Ok(())
    }
}

/// An eventfd that makes a shard's [`Poller`] return: written by the
/// acceptor after handing over a connection, by [`crate::PushHub`] after
/// queueing a notification for one of the shard's subscriptions, and by
/// shutdown.
pub struct Waker {
    fd: File,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        // SAFETY: plain syscall, no pointers.
        let fd = owned(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Waker { fd: File::from(fd) })
    }

    pub fn raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Make the fd readable. Never blocks: wakes that arrive before the
    /// shard resets add up in the counter.
    pub fn wake(&self) {
        let _ = (&self.fd).write(&1u64.to_ne_bytes());
    }

    /// Consume every pending wake (the fd stops being readable).
    pub fn reset(&self) {
        let _ = (&self.fd).read(&mut [0u8; 8]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn reports_wakes_and_readable_sockets_by_token() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(waker.raw_fd(), 0, READ).unwrap();
        let mut ready = Vec::new();

        waker.wake();
        waker.wake();
        poller.wait(&mut ready).unwrap();
        assert_eq!(ready, vec![0]);
        waker.reset();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        poller.add(server_side.as_raw_fd(), 7, READ).unwrap();
        client.write_all(b"x").unwrap();
        poller.wait(&mut ready).unwrap();
        assert_eq!(ready, vec![7], "the reset waker no longer fires");

        // Interest can be narrowed to writability and back.
        poller.modify(server_side.as_raw_fd(), 7, WRITE).unwrap();
        poller.wait(&mut ready).unwrap();
        assert_eq!(ready, vec![7]);
    }
}
