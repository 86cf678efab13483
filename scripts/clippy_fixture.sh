#!/usr/bin/env bash
# Negative control for the clippy-enforced workspace lint rules.
#
# Runs clippy on scripts/clippy_fixture, a crate outside the workspace that
# carries the library deny line and reads the root clippy.toml, and fails
# unless the set of (line, lint) findings equals the set marked
# `// FINDING <lint> [<lint> ...]` in its src/lib.rs. A lint that stops
# firing (a clippy.toml entry dropped, a lint left out of the deny line)
# and a finding on an unmarked line both fail.
#
#   scripts/clippy_fixture.sh
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
fixture="$root/scripts/clippy_fixture"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/clippy_fixture}"

expected="$(grep -n '// FINDING [a-z_ ]*$' "$fixture/src/lib.rs" |
    sed 's|^\([0-9]*\):.*// FINDING \([a-z_ ]*\)$|\1 \2|' |
    awk '{ for (i = 2; i <= NF; i++) print $1, $i }' | sort -u)"

# Check from scratch every time, so no finding is replayed from a cache.
cargo clean --quiet --manifest-path "$fixture/Cargo.toml" -p clippy-fixture
found="$(cargo clippy --quiet --offline --manifest-path "$fixture/Cargo.toml" \
    --message-format=json 2>/dev/null |
    python3 -c '
import json, sys
for line in sys.stdin:
    msg = json.loads(line)
    if msg.get("reason") != "compiler-message":
        continue
    d = msg["message"]
    code = (d.get("code") or {}).get("code") or d["message"]
    for span in d["spans"]:
        if span["is_primary"]:
            print(span["line_start"], code.removeprefix("clippy::"))
' | sort -u)" || true

if [ "$expected" != "$found" ]; then
    echo "clippy fixture: findings differ from the FINDING markers" >&2
    echo "(< marked but not found, > found but not marked)" >&2
    diff <(echo "$expected") <(echo "$found") >&2 || true
    exit 1
fi
echo "clippy fixture: $(echo "$found" | wc -l) findings, all marked"
