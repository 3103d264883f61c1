#!/bin/sh
# Paper-scale bit checks: sh paper_scale.sh PATH-TO-YIELDLAB
#
# The fast fixtures reach few pivot paths of the dense AC sweep; the
# paper-scale flow sweeps 99 front points and 19,800 samples, so these
# are the checks that prove the dense kernels at scale.
#
# 1. The dense tables keep the digests the generic elimination wrote, at
#    -j 1 and -j 2.  An intended change to the dense numerics updates
#    them here.
# 2. csr samples start Newton at the nominal operating point and dense
#    samples at the nodeset guess; both converge to Newton's tolerance,
#    so every csr variation-model entry stays within 1e-9 relative of the
#    dense one (about 3e-11 today), with the same rows and the same
#    perf_model.tbl.  The fast OTA and Miller bounds are in
#    test/cli/solver.t.
#
# Exits 1, naming the check, when one fails.
set -eu
yieldlab=$1
# a variable set in the calling environment would change what the flows
# resolve, so none is inherited, and every run names its jobs count
unset $(env | sed -n 's/^\(YIELDLAB_[A-Z_]*\)=.*/\1/p')
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$yieldlab" flow -j 1 --out-dir "$work/dense-j1" > /dev/null
"$yieldlab" flow -j 2 --out-dir "$work/dense-j2" > /dev/null
perf=cb2f821301f1866f3539455915013d41
variation=4db4f7c52aa34416ebff71466e13273c
printf '%s\n' "$perf" "$perf" "$variation" "$variation" > "$work/want.md5"
md5sum "$work/dense-j1/perf_model.tbl" "$work/dense-j2/perf_model.tbl" \
  "$work/dense-j1/variation_model.tbl" "$work/dense-j2/variation_model.tbl" |
  cut -d' ' -f1 > "$work/got.md5"
cmp -s "$work/want.md5" "$work/got.md5" || {
  echo "paper-scale dense table digests moved:"
  paste "$work/want.md5" "$work/got.md5"
  exit 1
}
echo "paper-scale dense tables: $perf / $variation at -j 1 and -j 2"

# the dense tables are the same at any jobs count (checked above), so
# the -j 1 ones are the reference
"$yieldlab" flow --solver csr -j 2 --out-dir "$work/csr" > /dev/null
cmp "$work/dense-j1/perf_model.tbl" "$work/csr/perf_model.tbl" || {
  echo "paper-scale csr perf_model.tbl differs from dense"
  exit 1
}
awk -v bound=1e-9 '
  /^[ \t]*$/ || /^[ \t]*[#;]/ { next }
  FNR == NR { rows[n++] = $0; next }
  {
    k = split(rows[m++], d)
    if (k != NF) ragged = 1
    for (i = 1; i <= NF; i++) {
      a = d[i] + 0; b = $i + 0
      dev = a > b ? a - b : b - a
      mag = a < 0 ? -a : a
      if (mag < 1e-9) mag = 1e-9
      if (dev / mag > worst) worst = dev / mag
    }
  }
  END {
    if (n != m || ragged) { print "paper-scale csr variation model: rows differ from dense"; exit 1 }
    if (worst > bound) { print "paper-scale csr variation model off dense by " worst; exit 1 }
    printf "paper-scale csr variation model: %d rows, max relative deviation %.3g\n", m, worst
  }' "$work/dense-j1/variation_model.tbl" "$work/csr/variation_model.tbl"
