"""Build script: compiles the optional graded-product extension when Cython is present.

Without Cython (or a C compiler) the package still installs. Either way the
batched numpy kernel is the default; COHERENCE_KERNEL=compiled selects the
extension when it is built.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

ext_modules = []
if cythonize is not None:
    ext_modules = cythonize(
        [
            # -ffp-contract=off keeps the complex arithmetic bit-identical to
            # the numpy fallback (no FMA contraction).
            Extension(
                "cohstab.kernel._graded",
                sources=["src/cohstab/kernel/_graded.pyx"],
                extra_compile_args=["-O3", "-ffp-contract=off"],
            )
        ],
        language_level=3,
    )

setup(ext_modules=ext_modules)
