from setuptools import Extension, setup

# The modular elimination loop is optional: _gfcore.c is a short hand-written
# C file (CPython API and buffer protocol, no numpy headers).  If it does not
# build (no C compiler), the package uses the numpy loop in linalg.
setup(ext_modules=[
    Extension("ppinterp._gfcore", ["src/ppinterp/_gfcore.c"], optional=True)
])
