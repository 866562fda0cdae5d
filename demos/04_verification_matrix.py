"""Tour: the identity verification matrix, programmatically.

The same registry backs `tqeuler verify`; here it is driven from Python with
small bounds and the report inspected directly.
"""

from tqeuler.registry import identity_ids, run_verification

print(f"{len(identity_ids())} registered identities:")
for ident in identity_ids():
    print("  ", ident)

print()
report = run_verification(max_n=4, max_k=4, max_b=2)
print("sample of cases:")
for case in report.cases[:8]:
    print(f"  {case.status:<7} {case.id:<22} {case.params}")
print("...")
print("summary:", report.summary)

print()
print("one identity in depth (ballot closed form for normalized d_n):")
deep = run_verification(max_n=10, select="touchard-riordan")
for case in deep.cases:
    print(f"  {case.status:<7} n={case.params['n']}")
