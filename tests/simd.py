"""The numpy SIMD level that some float.hex pins depend on.

numpy's exp, log and power take AVX-512 kernels on an X86_V4 host and AVX2
ones below it, and the two round some inputs differently in the last bit.
A pin recorded through them keeps its X86_V4 value and adds the AVX2 one,
picked by ``X86_V4``.  ``NPY_DISABLE_CPU_FEATURES=AVX2_ONLY`` makes numpy on
an AVX-512 host run its AVX2 kernels, and names nothing an AVX2 host must
give up, so one host checks both values (``LEVEL_PINNED`` lists the tests).
"""

from numpy._core._multiarray_umath import __cpu_features__

X86_V4 = __cpu_features__["X86_V4"]
AVX2_ONLY = "X86_V4 AVX512_ICL AVX512_SPR"
LEVEL_PINNED = [
    "tests/test_nig.py::TestPinnedBits::test_make_bundle_axa_slice",
    "tests/test_nig.py::TestPinnedBits::test_stack_with_kinks_on_panel_edges",
    "tests/test_pricing.py::TestCmc::test_bit_identical_pins",
]
