//! The one way building a system fails that is the host's doing, not
//! the caller's: no OS thread for an application thread.

use std::fmt;

/// The host refused an OS thread for an application thread.
#[derive(Debug)]
pub struct StartError {
    /// Threads started before it.
    pub started: usize,
    /// Threads the configuration asks for.
    pub wanted: usize,
    /// The error of the spawn.
    pub source: std::io::Error,
}

impl fmt::Display for StartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let StartError {
            started,
            wanted,
            source,
        } = self;
        // The count, not the id: thread 1 of 8 is the first.
        write!(
            f,
            "cannot start application thread {} of {wanted}: {source}",
            started + 1
        )
    }
}

impl std::error::Error for StartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::StartError;

    #[test]
    fn names_the_thread_by_count_and_keeps_the_os_text() {
        let e = StartError {
            started: 31870,
            wanted: 40000,
            source: std::io::Error::from(std::io::ErrorKind::WouldBlock),
        };
        let text = e.to_string();
        assert!(
            text.starts_with("cannot start application thread 31871 of 40000: "),
            "{text}"
        );
        assert!(text.ends_with(&e.source.to_string()), "{text}");
    }
}
