"""`python -m forestskein ...` runs the `fsk` command line."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="fsk")
