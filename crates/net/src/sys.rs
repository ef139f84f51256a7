//! Thin Linux syscall layer for the live workers: epoll,
//! `recvmmsg`/`sendmmsg`, and socket-buffer control.
//!
//! The workspace vendors its few third-party APIs (see `crates/compat`),
//! so there is no `libc` crate to lean on; this module declares exactly
//! the handful of glibc entry points the live plane needs, with the
//! x86-64 Linux struct layouts written out. Everything is wrapped in
//! safe, narrow helpers — the rest of the crate never touches a raw fd
//! except through [`Epoll`], [`BatchSocket`] and
//! [`set_socket_bufs`].
//!
//! Portability: on non-Linux targets (and when `MSS_NO_MMSG=1`), the
//! batched send/receive helpers degrade to one `send_to`/`recv_from`
//! per datagram and the worker's wait to a short sleep — slower,
//! but behaviorally identical, so the verify gates run everywhere.

use std::io;
use std::net::UdpSocket;

/// Upper bound on datagrams moved per batched receive syscall.
pub(crate) const RX_BATCH: usize = 32;
/// Upper bound on datagrams moved per batched send syscall.
pub(crate) const TX_BATCH: usize = 64;
/// Receive scratch per datagram: the codec bounds frames at one UDP
/// datagram (~64 KiB); coordination frames at n=10³ stay far below this.
pub(crate) const RX_BUF: usize = 65_536;

/// True when the batched `recvmmsg`/`sendmmsg` path is compiled in and
/// not disabled via `MSS_NO_MMSG=1`.
pub(crate) fn mmsg_enabled() -> bool {
    if std::env::var_os("MSS_NO_MMSG").is_some_and(|v| v == "1") {
        return false;
    }
    cfg!(target_os = "linux")
}

/// One received datagram: filled length and kernel-reported drop count
/// (cumulative per socket, from `SO_RXQ_OVFL`; 0 when unsupported).
#[derive(Clone, Default)]
pub(crate) struct RxMeta {
    pub len: usize,
    pub rxq_ovfl: u32,
}

/// A send destination, converted to the kernel's address form once
/// (when the sender is set up) instead of once per datagram.
pub(crate) struct Dest {
    addr: std::net::SocketAddr,
    #[cfg(target_os = "linux")]
    raw: linux::SockAddrIn,
}

impl Dest {
    pub(crate) fn new(addr: std::net::SocketAddr) -> Dest {
        Dest {
            addr,
            #[cfg(target_os = "linux")]
            raw: linux::sockaddr_of(addr),
        }
    }
}

#[cfg(target_os = "linux")]
mod linux {
    use super::*;
    use std::os::fd::{AsRawFd, RawFd};

    pub(crate) type CInt = i32;

    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct SockAddrIn {
        family: u16,
        port_be: u16,
        addr_be: u32,
        zero: [u8; 8],
    }

    #[repr(C)]
    struct MsgHdr {
        name: *mut SockAddrIn,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: CInt,
    }

    #[repr(C)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    /// x86-64 packs epoll_event; on other Linux arches the packed layout
    /// is identical or padded compatibly for the fields we use.
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    #[repr(C)]
    struct CMsgHdr {
        len: usize,
        level: CInt,
        ty: CInt,
    }

    const EPOLLIN: u32 = 0x1;
    const EPOLL_CTL_ADD: CInt = 1;
    const SOL_SOCKET: CInt = 1;
    const SO_SNDBUF: CInt = 7;
    const SO_RCVBUF: CInt = 8;
    const SO_RXQ_OVFL: CInt = 40;
    const MSG_DONTWAIT: CInt = 0x40;
    const AF_INET: u16 = 2;
    const CMSG_SPACE: usize = 32;

    extern "C" {
        fn epoll_create1(flags: CInt) -> CInt;
        fn epoll_ctl(epfd: CInt, op: CInt, fd: CInt, event: *mut EpollEvent) -> CInt;
        fn epoll_wait(epfd: CInt, events: *mut EpollEvent, maxevents: CInt, timeout: CInt) -> CInt;
        fn recvmmsg(fd: CInt, vec: *mut MMsgHdr, vlen: u32, flags: CInt, timeout: *mut u8) -> CInt;
        fn sendmmsg(fd: CInt, vec: *mut MMsgHdr, vlen: u32, flags: CInt) -> CInt;
        fn setsockopt(fd: CInt, level: CInt, name: CInt, val: *const u8, len: u32) -> CInt;
        fn getsockopt(fd: CInt, level: CInt, name: CInt, val: *mut u8, len: *mut u32) -> CInt;
        fn close(fd: CInt) -> CInt;
    }

    pub(super) fn sockaddr_of(addr: std::net::SocketAddr) -> SockAddrIn {
        let std::net::SocketAddr::V4(v4) = addr else {
            // The live plane binds IPv4 loopback only.
            panic!("live plane sockets are IPv4");
        };
        SockAddrIn {
            family: AF_INET,
            port_be: v4.port().to_be(),
            addr_be: u32::from(*v4.ip()).to_be(),
            zero: [0; 8],
        }
    }

    /// Minimal epoll wrapper: register read-interest fds once, then wait.
    pub(crate) struct Epoll {
        fd: CInt,
    }

    impl Epoll {
        pub(crate) fn new() -> io::Result<Epoll> {
            let fd = unsafe { epoll_create1(0) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        /// Watch `fd` for readability, tagging events with `token`.
        pub(crate) fn add(&self, fd: RawFd, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: EPOLLIN,
                data: token,
            };
            if unsafe { epoll_ctl(self.fd, EPOLL_CTL_ADD, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Wait up to `timeout_ms` (-1 = forever); `out` holds exactly the
        /// tokens this call found ready (none after a signal interrupt).
        pub(crate) fn wait(&self, out: &mut Vec<u64>, timeout_ms: i32) -> io::Result<()> {
            out.clear();
            let mut evs = [EpollEvent { events: 0, data: 0 }; 16];
            let n = unsafe { epoll_wait(self.fd, evs.as_mut_ptr(), evs.len() as CInt, timeout_ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for ev in &evs[..n as usize] {
                out.push(ev.data);
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    /// Set explicit kernel buffer sizes on a socket and report what the
    /// kernel actually granted (it doubles the request and clamps to
    /// `net.core.{r,w}mem_max`).
    pub(crate) fn set_socket_bufs(
        sock: &UdpSocket,
        rcv: usize,
        snd: usize,
    ) -> io::Result<(usize, usize)> {
        let fd = sock.as_raw_fd();
        let set = |name: CInt, bytes: usize| unsafe {
            let v = bytes as CInt;
            setsockopt(fd, SOL_SOCKET, name, (&v as *const CInt).cast(), 4)
        };
        let get = |name: CInt| -> usize {
            let mut v: CInt = 0;
            let mut len: u32 = 4;
            unsafe { getsockopt(fd, SOL_SOCKET, name, (&mut v as *mut CInt).cast(), &mut len) };
            v.max(0) as usize
        };
        if set(SO_RCVBUF, rcv) < 0 || set(SO_SNDBUF, snd) < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok((get(SO_RCVBUF), get(SO_SNDBUF)))
    }

    /// Ask the kernel to attach its receive-queue overflow counter to
    /// every datagram (surfaced per-datagram via a control message).
    pub(crate) fn enable_rxq_ovfl(sock: &UdpSocket) -> bool {
        let v: CInt = 1;
        unsafe {
            setsockopt(
                sock.as_raw_fd(),
                SOL_SOCKET,
                SO_RXQ_OVFL,
                (&v as *const CInt).cast(),
                4,
            ) >= 0
        }
    }

    /// Batched datagram I/O over one socket. Owns the parallel syscall
    /// arrays, sized once for the larger of the two batch bounds, so a
    /// call is pointer fills, not allocation. The raw pointers in `iovs`
    /// and `hdrs` are rewritten by every call before the kernel reads
    /// them and never dereferenced otherwise.
    pub(crate) struct BatchSocket {
        fd: CInt,
        use_mmsg: bool,
        ctrl: Vec<[u8; CMSG_SPACE]>,
        names: Vec<SockAddrIn>,
        iovs: Vec<IoVec>,
        hdrs: Vec<MMsgHdr>,
    }

    // SAFETY: `fd`, `use_mmsg`, `ctrl` and `names` are plain data, and
    // the raw pointers in `iovs` and `hdrs` are scratch: every call
    // rewrites them from its own arguments before the kernel reads them,
    // so a socket moved to another thread carries no live borrow.
    unsafe impl Send for BatchSocket {}

    impl BatchSocket {
        pub(crate) fn new(sock: &UdpSocket, use_mmsg: bool) -> BatchSocket {
            let cap = RX_BATCH.max(TX_BATCH);
            BatchSocket {
                fd: sock.as_raw_fd(),
                use_mmsg,
                ctrl: vec![[0u8; CMSG_SPACE]; RX_BATCH],
                names: vec![
                    SockAddrIn {
                        family: 0,
                        port_be: 0,
                        addr_be: 0,
                        zero: [0; 8],
                    };
                    RX_BATCH
                ],
                iovs: Vec::with_capacity(cap),
                hdrs: Vec::with_capacity(cap),
            }
        }

        /// Point `hdrs[i]` at `iovs[i]` for every filled iovec, with the
        /// name and control buffers `name_ctrl(i)` supplies.
        fn fill_hdrs(
            &mut self,
            mut name_ctrl: impl FnMut(usize) -> (*mut SockAddrIn, *mut u8, usize),
        ) {
            self.hdrs.clear();
            let iovs = self.iovs.as_mut_ptr();
            for i in 0..self.iovs.len() {
                let (name, control, controllen) = name_ctrl(i);
                self.hdrs.push(MMsgHdr {
                    hdr: MsgHdr {
                        name,
                        namelen: std::mem::size_of::<SockAddrIn>() as u32,
                        // SAFETY: `i < iovs.len()`, so the offset stays
                        // inside the vector's allocation.
                        iov: unsafe { iovs.add(i) },
                        iovlen: 1,
                        control,
                        controllen,
                        flags: 0,
                    },
                    len: 0,
                });
            }
        }

        /// Receive up to `bufs.len()` datagrams without blocking; fills
        /// `meta` (parallel to `bufs`) and returns the count. `Ok(0)`
        /// means the socket had nothing pending.
        pub(crate) fn recv_batch(
            &mut self,
            sock: &UdpSocket,
            bufs: &mut [Vec<u8>],
            meta: &mut [RxMeta],
        ) -> io::Result<usize> {
            if !self.use_mmsg {
                return fallback_recv(sock, bufs, meta);
            }
            let vlen = bufs.len().min(RX_BATCH);
            self.iovs.clear();
            self.iovs.extend(bufs[..vlen].iter_mut().map(|b| IoVec {
                base: b.as_mut_ptr(),
                len: b.capacity(),
            }));
            let (names, ctrl) = (self.names.as_mut_ptr(), self.ctrl.as_mut_ptr());
            // SAFETY: `i < vlen <= RX_BATCH`, the length of both arrays.
            self.fill_hdrs(|i| unsafe { (names.add(i), ctrl.add(i).cast(), CMSG_SPACE) });
            let n = unsafe {
                recvmmsg(
                    self.fd,
                    self.hdrs.as_mut_ptr(),
                    vlen as u32,
                    MSG_DONTWAIT,
                    std::ptr::null_mut(),
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                return match e.kind() {
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted => Ok(0),
                    _ => Err(e),
                };
            }
            let n = n as usize;
            for i in 0..n {
                let hdr = &self.hdrs[i];
                // SAFETY: the kernel wrote hdr.len bytes into bufs[i],
                // whose capacity we advertised in the iovec.
                unsafe { bufs[i].set_len(hdr.len as usize) };
                meta[i] = RxMeta {
                    len: hdr.len as usize,
                    rxq_ovfl: parse_rxq_ovfl(&self.ctrl[i], hdr.hdr.controllen),
                };
            }
            Ok(n)
        }

        /// Send every datagram to `dest`, batched `TX_BATCH` at a time.
        /// Returns datagrams handed to the kernel and syscalls used.
        pub(crate) fn send_batch<B: AsRef<[u8]>>(
            &mut self,
            sock: &UdpSocket,
            dest: &Dest,
            datagrams: &[B],
        ) -> io::Result<(usize, usize)> {
            if !self.use_mmsg {
                return fallback_send(sock, dest, datagrams);
            }
            let mut sent = 0usize;
            let mut calls = 0usize;
            for chunk in datagrams.chunks(TX_BATCH) {
                self.iovs.clear();
                self.iovs.extend(chunk.iter().map(|b| IoVec {
                    // The kernel only reads a send buffer.
                    base: b.as_ref().as_ptr().cast_mut(),
                    len: b.as_ref().len(),
                }));
                // Nor does it write a destination address.
                let name: *const SockAddrIn = &dest.raw;
                self.fill_hdrs(|_| (name.cast_mut(), std::ptr::null_mut(), 0));
                // The tx socket is blocking: a full send buffer throttles
                // the worker (backpressure) instead of dropping.
                let mut done = 0usize;
                while done < chunk.len() {
                    let n = unsafe {
                        sendmmsg(
                            self.fd,
                            self.hdrs[done..].as_mut_ptr(),
                            (chunk.len() - done) as u32,
                            0,
                        )
                    };
                    calls += 1;
                    if n < 0 {
                        let e = io::Error::last_os_error();
                        if e.kind() == io::ErrorKind::Interrupted {
                            continue;
                        }
                        return Err(e);
                    }
                    if n == 0 {
                        break;
                    }
                    done += n as usize;
                }
                sent += done;
            }
            Ok((sent, calls))
        }
    }

    /// Walk the control buffer for the `SO_RXQ_OVFL` drop counter.
    fn parse_rxq_ovfl(ctrl: &[u8; CMSG_SPACE], controllen: usize) -> u32 {
        let hdr_len = std::mem::size_of::<CMsgHdr>();
        if controllen < hdr_len + 4 {
            return 0;
        }
        // SAFETY: the kernel wrote a well-formed cmsg into this buffer;
        // we only read the fixed header plus 4 payload bytes, both
        // bounds-checked against controllen above.
        let hdr = unsafe { &*(ctrl.as_ptr() as *const CMsgHdr) };
        if hdr.level == SOL_SOCKET && hdr.ty == SO_RXQ_OVFL && hdr.len >= hdr_len + 4 {
            let mut v = [0u8; 4];
            v.copy_from_slice(&ctrl[hdr_len..hdr_len + 4]);
            return u32::from_ne_bytes(v);
        }
        0
    }
}

#[cfg(target_os = "linux")]
pub(crate) use linux::{enable_rxq_ovfl, set_socket_bufs, BatchSocket, Epoll};

/// One `recv_from` per datagram: the portable path, also used when
/// `MSS_NO_MMSG=1` forces the gates to exercise the fallback.
fn fallback_recv(sock: &UdpSocket, bufs: &mut [Vec<u8>], meta: &mut [RxMeta]) -> io::Result<usize> {
    let mut n = 0;
    while n < bufs.len() {
        let cap = bufs[n].capacity();
        // SAFETY: recv_from writes at most `cap` bytes; set_len follows
        // only with the kernel-reported length.
        unsafe { bufs[n].set_len(cap) };
        match sock.recv_from(&mut bufs[n]) {
            Ok((len, _)) => {
                unsafe { bufs[n].set_len(len) };
                meta[n] = RxMeta { len, rxq_ovfl: 0 };
                n += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                if n == 0 {
                    return Err(e);
                }
                break;
            }
        }
    }
    Ok(n)
}

/// One `send_to` per datagram (portable / forced-fallback path).
fn fallback_send<B: AsRef<[u8]>>(
    sock: &UdpSocket,
    dest: &Dest,
    datagrams: &[B],
) -> io::Result<(usize, usize)> {
    let mut sent = 0;
    for datagram in datagrams {
        if sock.send_to(datagram.as_ref(), dest.addr).is_ok() {
            sent += 1;
        }
    }
    Ok((sent, datagrams.len().max(1)))
}

#[cfg(not(target_os = "linux"))]
mod portable {
    use super::*;

    /// Portable stand-ins keeping the same surface as the Linux layer.
    pub(crate) struct Epoll;

    impl Epoll {
        pub(crate) fn new() -> io::Result<Epoll> {
            Ok(Epoll)
        }
        pub(crate) fn add(&self, _fd: i32, _token: u64) -> io::Result<()> {
            Ok(())
        }
        /// Without epoll a worker sleeps briefly and polls its
        /// socket; `wait` reports every token as potentially ready.
        pub(crate) fn wait(&self, out: &mut Vec<u64>, timeout_ms: i32) -> io::Result<()> {
            std::thread::sleep(std::time::Duration::from_millis(
                timeout_ms.clamp(0, 2) as u64
            ));
            out.clear();
            for t in 0..u64::from(u16::MAX) {
                out.push(t);
                if out.len() >= 16 {
                    break;
                }
            }
            Ok(())
        }
    }

    pub(crate) fn set_socket_bufs(
        _sock: &UdpSocket,
        rcv: usize,
        snd: usize,
    ) -> io::Result<(usize, usize)> {
        Ok((rcv, snd))
    }

    pub(crate) fn enable_rxq_ovfl(_sock: &UdpSocket) -> bool {
        false
    }

    pub(crate) struct BatchSocket;

    impl BatchSocket {
        pub(crate) fn new(_sock: &UdpSocket, _use_mmsg: bool) -> BatchSocket {
            BatchSocket
        }
        pub(crate) fn recv_batch(
            &mut self,
            sock: &UdpSocket,
            bufs: &mut [Vec<u8>],
            meta: &mut [RxMeta],
        ) -> io::Result<usize> {
            fallback_recv(sock, bufs, meta)
        }
        pub(crate) fn send_batch<B: AsRef<[u8]>>(
            &mut self,
            sock: &UdpSocket,
            dest: &Dest,
            datagrams: &[B],
        ) -> io::Result<(usize, usize)> {
            fallback_send(sock, dest, datagrams)
        }
    }
}

#[cfg(not(target_os = "linux"))]
pub(crate) use portable::{enable_rxq_ovfl, set_socket_bufs, BatchSocket, Epoll};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_bufs_are_set_and_reported() {
        let s = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (r, w) = set_socket_bufs(&s, 262_144, 262_144).unwrap();
        // Linux reports back 2x the request (bookkeeping overhead) and
        // never less than the minimum; either way it must be nonzero.
        assert!(r >= 262_144, "rcvbuf {r}");
        assert!(w >= 262_144, "sndbuf {w}");
    }

    #[test]
    fn batch_roundtrip_loopback() {
        // Both paths, not only the one `mmsg_enabled()` picks.
        for use_mmsg in [false, true] {
            let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
            rx.set_nonblocking(true).unwrap();
            let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
            let dst = Dest::new(rx.local_addr().unwrap());
            let mut btx = BatchSocket::new(&tx, use_mmsg);
            let frames: Vec<Vec<u8>> = (0u8..10).map(|i| vec![i; 32 + i as usize]).collect();
            let (sent, calls) = btx.send_batch(&tx, &dst, &frames).unwrap();
            assert_eq!(sent, 10);
            assert!(calls >= 1);
            if !use_mmsg {
                assert_eq!(calls, 10, "the fallback makes one call per datagram");
            }

            let mut brx = BatchSocket::new(&rx, use_mmsg);
            let mut bufs: Vec<Vec<u8>> = (0..RX_BATCH).map(|_| Vec::with_capacity(2048)).collect();
            let mut meta = vec![RxMeta::default(); RX_BATCH];
            let mut got = 0;
            for _ in 0..200 {
                let n = brx.recv_batch(&rx, &mut bufs, &mut meta).unwrap();
                for i in 0..n {
                    assert_eq!(bufs[i].len(), meta[i].len);
                    assert!(!bufs[i].is_empty());
                }
                got += n;
                if got >= 10 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            assert_eq!(got, 10, "all datagrams must arrive (use_mmsg {use_mmsg})");
        }
    }
}
