"""`python -m reswire`: the `reswire` command line (`cli.main`)."""
from .cli import main

raise SystemExit(main())
