from setuptools import Extension, setup

# The modular elimination kernel is optional.  With Cython it is compiled
# from the .pyx; without it, from the C file generated from that .pyx and
# shipped beside it.  If neither builds (no C compiler), the package falls
# back to the numpy implementation at import.
try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

if cythonize is not None:
    ext_modules = cythonize(
        [Extension("ppinterp._gfcore", ["src/ppinterp/_gfcore.pyx"])],
        compiler_directives={"language_level": "3"},
    )
else:
    ext_modules = [
        Extension("ppinterp._gfcore", ["src/ppinterp/_gfcore.c"], optional=True)
    ]

setup(ext_modules=ext_modules)
