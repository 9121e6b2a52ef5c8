from overhang.cli import run

if __name__ == "__main__":  # run() ends the process: an import must not reach it
    run()
