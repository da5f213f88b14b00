# Shell helpers for the smoke steps of .github/workflows/tests.yml, which
# source this file.

# strict FILE: parse FILE as RFC 8259 allows: no NaN, no Infinity
strict() {
  python3 -c 'import json, sys
def reject(token):
    sys.exit("%s: %s is not JSON" % (sys.argv[1], token))
with open(sys.argv[1]) as fh:
    json.load(fh, parse_constant=reject)' "$1"
}

# typed_error TYPE cmd...: cmd exits 1 and prints one stderr line,
# "error: TYPE: <message>", which also rules out a traceback
typed_error() {
  kind=$1; shift
  code=0; "$@" 2> "$RUNNER_TEMP/err.txt" || code=$?
  test $code -eq 1
  test "$(wc -l < "$RUNNER_TEMP/err.txt")" -eq 1
  grep -q "^error: $kind: " "$RUNNER_TEMP/err.txt"
}
