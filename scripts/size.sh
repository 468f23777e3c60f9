#!/usr/bin/env bash
# Prints the three size counts a simplicity change quotes: Rust source
# lines under crates/, src/ and shims/; lines of the pinned public-API
# dumps (tests/api/*.txt); and lines of the integration suites
# (tests/*.rs). Then the wall-clock reads and sleeps left in crates/:
# occurrences of `thread::sleep` and `Instant::now`; and the string keys
# left in crates/: occurrences of `format!("{:?}"` and `.signature()`. It
# reports only and gates nothing. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { cat "$@" | wc -l | tr -d ' '; }
calls() { { grep -rFo "$1" crates --include='*.rs' || true; } | wc -l | tr -d ' '; }

echo "size: rust source lines (crates/ src/ shims/): $(lines $(find crates src shims -name '*.rs'))"
echo "size: public-API dump lines (tests/api/*.txt): $(lines tests/api/*.txt)"
echo "size: integration-test lines (tests/*.rs): $(lines tests/*.rs)"
echo "size: thread::sleep calls (crates/): $(calls 'thread::sleep')"
echo "size: Instant::now calls (crates/): $(calls 'Instant::now')"
echo "size: format!(\"{:?}\" string keys (crates/): $(calls 'format!("{:?}"')"
echo "size: .signature() string keys (crates/): $(calls '.signature()')"
