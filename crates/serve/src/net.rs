//! Transport: one listener/stream abstraction over TCP and Unix
//! sockets.
//!
//! An address that ends in `:<port>` and has no `/` is `host:port`
//! (`127.0.0.1:0`, `localhost:8080`, `[::1]:80`); anything else is a
//! filesystem socket path (`.dca-serve.sock`, `/tmp/dca.sock`,
//! `./srv/dca.sock`). Unix sockets are the default for local serving
//! (no port allocation, filesystem permissions); TCP exists for the
//! tests and for serving across a network namespace.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

/// Is `addr` a filesystem socket path rather than `host:port`?
pub fn is_unix(addr: &str) -> bool {
    let tcp_port = addr
        .rsplit_once(':')
        .is_some_and(|(_, port)| !port.is_empty() && port.bytes().all(|b| b.is_ascii_digit()));
    addr.contains('/') || !tcp_port
}

/// One bidirectional client connection, transport-erased.
pub trait Conn: Read + Write + Send {
    /// An independently-owned handle to the same socket (for the
    /// writer thread, and for shutdown handles held by the server).
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>>;
    /// Shuts down both directions, unblocking any thread inside a
    /// blocking read on another clone.
    fn shutdown_conn(&self);
}

impl Conn for TcpStream {
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn shutdown_conn(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

impl Conn for UnixStream {
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn shutdown_conn(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

/// A bound accept socket. Dropping a Unix listener removes its socket
/// file.
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener plus the path to unlink on drop.
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds `addr`. A pre-existing Unix socket file is probed with a
    /// connect first: if a daemon answers, the bind fails with
    /// `AddrInUse` (unlinking its path would leave it running but
    /// unreachable); if the connect is refused, the file is a dead
    /// daemon's leftover and is removed.
    pub fn bind(addr: &str) -> io::Result<Listener> {
        if is_unix(addr) {
            let path = PathBuf::from(addr);
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            match UnixStream::connect(&path) {
                Ok(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("a daemon is already listening on {addr}"),
                    ))
                }
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                    let _ = std::fs::remove_file(&path);
                }
                Err(_) => {}
            }
            Ok(Listener::Unix(UnixListener::bind(&path)?, path))
        } else {
            Ok(Listener::Tcp(TcpListener::bind(addr)?))
        }
    }

    /// Accepts one connection.
    pub fn accept(&self) -> io::Result<Box<dyn Conn>> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                Ok(Box::new(s))
            }
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                Ok(Box::new(s))
            }
        }
    }

    /// The bound address in connectable form (resolves `:0` TCP ports).
    pub fn local_addr(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_default(),
            Listener::Unix(_, p) => p.display().to_string(),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Connects to a serve address (client side, and the server's own
/// shutdown self-connection that wakes the accept loop).
pub fn connect(addr: &str) -> io::Result<Box<dyn Conn>> {
    if is_unix(addr) {
        Ok(Box::new(UnixStream::connect(addr)?))
    } else {
        Ok(Box::new(TcpStream::connect(addr)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_without_a_port_are_socket_paths() {
        for addr in [".dca-serve.sock", "dca.sock", "./a.sock", "/tmp/x:80", "host:", "a:b"] {
            assert!(is_unix(addr), "{addr} is a socket path");
        }
        for addr in ["127.0.0.1:0", "localhost:8080", "[::1]:80"] {
            assert!(!is_unix(addr), "{addr} is host:port");
        }
    }

    /// A bare file name (the `.dca-serve.sock` default's shape) binds
    /// a Unix socket in the working directory and takes connections;
    /// `host:port` still binds TCP.
    #[test]
    fn bare_file_names_bind_unix_and_host_port_binds_tcp() {
        let name = format!("dca-net-test-{}.sock", std::process::id());
        let l = Listener::bind(&name).expect("bare file name binds");
        assert!(matches!(l, Listener::Unix(..)));
        assert_eq!(l.local_addr(), name);
        connect(&name).expect("connects over the unix socket");
        drop(l);
        assert!(!std::path::Path::new(&name).exists(), "socket unlinked on drop");
        let l = Listener::bind("127.0.0.1:0").expect("host:port binds");
        assert!(matches!(l, Listener::Tcp(_)));
        connect(&l.local_addr()).expect("connects over TCP");
    }

    /// A socket file nobody listens on any more is a dead daemon's
    /// leftover: bind removes it and takes over the path.
    #[test]
    fn stale_socket_files_are_replaced() {
        let dir = std::env::temp_dir().join(format!("dca-net-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.sock");
        drop(UnixListener::bind(&path).unwrap()); // leaves the file behind
        assert!(path.exists());
        let l = Listener::bind(path.to_str().unwrap()).expect("stale file replaced");
        connect(&l.local_addr()).expect("new listener answers");
        drop(l);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
