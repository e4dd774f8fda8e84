"""Run the command line front end: python3 -m modgraphs <command> ..."""
from .cli import main

if __name__ == "__main__":
    main()
