//! Result persistence: every experiment dumps a JSON copy (and any
//! trace, journal or metrics export) under `target/repro/`.

use serde::Serialize;
use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;

/// Directory JSON results are written to: `$LAER_REPRO_DIR` when set at
/// *runtime* (CI jobs and packaged binaries can redirect artifacts
/// without rebuilding), else `target/repro/` under the repo root.
pub fn repro_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("LAER_REPRO_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // repo root
    dir.push("target");
    dir.push("repro");
    dir
}

/// Serializes `value` to `target/repro/<name>.json`, creating the
/// directory if needed. I/O failures are reported to stderr but do not
/// abort the experiment (results are also printed).
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    match serde_json::to_string_pretty(value) {
        Ok(json) => save_text(&format!("{name}.json"), &json),
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// Writes `body` to `target/repro/<file>`; failures only warn, like
/// [`save_json`].
pub(crate) fn save_text(file: &str, body: &str) {
    save_with(file, |mut f| f.write_all(body.as_bytes()));
}

/// Creates `target/repro/<file>` and hands it to `write` (a Chrome
/// trace writer, say); failures only warn, like [`save_json`].
pub(crate) fn save_with(file: &str, write: impl FnOnce(fs::File) -> io::Result<()>) {
    let dir = repro_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(file);
    match fs::File::create(&path).and_then(write) {
        Ok(()) => eprintln!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialises tests that read or mutate `LAER_REPRO_DIR` (env vars
    /// are process-global; cargo runs tests on parallel threads).
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn repro_dir_is_under_target() {
        let _guard = ENV_LOCK.lock().unwrap();
        let d = repro_dir();
        assert!(d.ends_with("target/repro"));
    }

    #[test]
    fn repro_dir_honors_runtime_env_override() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("LAER_REPRO_DIR", "/tmp/laer-override");
        let overridden = repro_dir();
        std::env::set_var("LAER_REPRO_DIR", "");
        let empty_is_default = repro_dir();
        std::env::remove_var("LAER_REPRO_DIR");
        assert_eq!(overridden, PathBuf::from("/tmp/laer-override"));
        assert!(empty_is_default.ends_with("target/repro"));
    }

    #[test]
    fn save_json_roundtrip() {
        let _guard = ENV_LOCK.lock().unwrap();
        #[derive(serde::Serialize)]
        struct T {
            x: u32,
        }
        save_json("unit_test_artifact", &T { x: 7 });
        let path = repro_dir().join("unit_test_artifact.json");
        let body = std::fs::read_to_string(&path).expect("file written");
        assert!(body.contains("7"));
        std::fs::remove_file(path).ok();
    }
}
