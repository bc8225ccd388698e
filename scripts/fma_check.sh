#!/usr/bin/env bash
# fma_check.sh — fail on any fused multiply-add in the arm64 build of the
# packages whose floating-point results must be the same bits on every
# target (CI; `make fma-check`).
#
# Go may fuse a*b + c into one FMA instruction where the target has one
# (go1.24 does on arm64, not on amd64), which rounds once where amd64
# rounds twice. Every package of the module (go list ./...) wraps each
# product that feeds an add or subtract in float64(...), which forces its
# rounding. This script builds each of them for arm64 with -S and fails on
# every fused instruction (FMADDD, FMSUBD, FNMADDD, FNMSUBD and their
# single-precision forms) whose source line — in the package or inlined
# into it — does not carry a `// fma-ok: <reason>` marker. A package that
# declares no non-generic function prints no listing of its own (generic
# code is read where it is instantiated) and is skipped, by name and with
# that reason. Nothing runs on arm64: the listing is read.
set -euo pipefail

cd "$(dirname "$0")/.."

pkgs="$(GOARCH=arm64 go list ./...)" # a failed go list stops the script
mapfile -t PKGS <<<"$pkgs"

fail=0
checked=0
for pkg in "${PKGS[@]}"; do
    if ! listing="$(GOARCH=arm64 go build -gcflags="$pkg=-S" -o /dev/null "$pkg" 2>&1)"; then
        echo "$listing"
        echo "FAIL $pkg: arm64 build"; exit 1
    fi
    # A listing with no function in it would pass vacuously: only a package
    # whose arm64 sources declare no non-generic function may print none.
    # Generic code is compiled, and read, in the packages instantiating it.
    if ! grep -q ' STEXT ' <<<"$listing"; then
        funcs="$(GOARCH=arm64 go list -f '{{$d := .Dir}}{{range .GoFiles}}{{$d}}/{{.}}{{"\n"}}{{end}}' "$pkg" |
            xargs grep -hE '^func ' || true)"
        if [ -n "$funcs" ] && grep -qvE '^func (\([^)]*\[[^]]*\]\) |[A-Za-z_0-9]+\[)' <<<"$funcs"; then
            echo "FAIL $pkg: the arm64 build printed no assembly listing"; exit 1
        elif [ -n "$funcs" ]; then
            echo "skip $pkg: declares only generic functions, read where they are instantiated"
        else
            echo "skip $pkg: declares no function"
        fi
        continue
    fi
    checked=$((checked + 1))
    sites="$(grep -E '\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADDS|FMSUBS|FNMADDS|FNMSUBS)\b' <<<"$listing" |
        grep -oE '\([^()]+\.go:[0-9]+\)' | tr -d '()' | sort -u || true)"
    while IFS= read -r site; do
        [ -n "$site" ] || continue
        file="${site%:*}" line="${site##*:}"
        src="$(sed -n "${line}p" "$file")"
        if ! grep -q '// fma-ok: ' <<<"$src"; then
            echo "FAIL $pkg: fused multiply-add at $site:"
            echo "    ${src#"${src%%[![:space:]]*}"}"
            fail=1
        fi
    done <<<"$sites"
done
if [ "$fail" -ne 0 ]; then
    echo "wrap each product that feeds an add or subtract in float64(...)"
    exit 1
fi
echo "fma-check: no unmarked fused multiply-add in the $checked packages with functions"
