#!/usr/bin/env bash
# Knob inventory gate: the MASK_* environment knobs the code reads must
# be exactly the runtime knobs README.md documents.
#
# "Read" means a string literal passed to one of the common/env.hh
# readers (envFlag, envU64, envString) in src/ or bench/. README's CMake
# options (MASK_SANITIZE*) are build-time and not counted. The gate also
# fails if anything in src/ or bench/ calls getenv outside
# src/common/env.cc, since such a read would bypass both the strict
# parsing and this inventory, and if a string literal in src/ or bench/
# names a MASK_* token that is not a README knob: an error message or
# log line must not point users at a knob that does not exist. Run
# from anywhere:
#
#   scripts/check_knobs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

code_knobs=$(find src bench -name '*.cc' -o -name '*.hh' | sort |
    xargs cat | tr '\n' ' ' |
    grep -oE 'env(Flag|U64|String)\([[:space:]]*"MASK_[A-Z0-9_]+"' |
    grep -oE 'MASK_[A-Z0-9_]+' | sort -u)
readme_knobs=$(grep -oE 'MASK_[A-Z0-9_]+' README.md |
    grep -v '^MASK_SANITIZE' | sort -u)

status=0
if [ "$code_knobs" != "$readme_knobs" ]; then
    echo "check_knobs: code and README.md disagree" >&2
    echo "  read by code only:" >&2
    comm -23 <(echo "$code_knobs") <(echo "$readme_knobs") | sed 's/^/    /' >&2
    echo "  documented in README.md only:" >&2
    comm -13 <(echo "$code_knobs") <(echo "$readme_knobs") | sed 's/^/    /' >&2
    status=1
fi

stray=$(grep -rlE '\bgetenv\b' src bench | grep -v '^src/common/env\.cc$' || true)
if [ -n "$stray" ]; then
    echo "check_knobs: getenv outside src/common/env.cc:" >&2
    echo "$stray" | sed 's/^/    /' >&2
    status=1
fi

# Every MASK_* token inside a string literal (char literals '"' are
# dropped first so they cannot pair with a real string's quote).
literal_tokens=$(find src bench -name '*.cc' -o -name '*.hh' | sort |
    xargs sed -e "s/'\\\\\?\"'//g" |
    grep -oE '"([^"\\]|\\.)*"' | grep -oE 'MASK_[A-Z0-9_]+' | sort -u)
unknown=$(comm -23 <(echo "$literal_tokens") <(echo "$readme_knobs"))
if [ -n "$unknown" ]; then
    echo "check_knobs: string literals name MASK_* tokens README.md does not list:" >&2
    echo "$unknown" | sed 's/^/    /' >&2
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "check_knobs: $(echo "$code_knobs" | wc -l) knobs, code and README.md agree"
fi
exit "$status"
