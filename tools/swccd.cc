/**
 * @file
 * swccd — the model-as-a-service daemon (see src/service/daemon.hh
 * and DESIGN §10).
 *
 * Usage:
 *   swccd --socket PATH [--workers N] [--batch-max K]
 *         [--max-connections N] [--max-bus-processors N]
 *         [--max-network-stages N] [--metrics-out PATH] ...
 *
 * Loads the cost tables once, binds the unix socket, prints a ready
 * line, and serves until SIGINT/SIGTERM triggers a graceful drain.
 * On exit it prints the stats document and writes the observability
 * artifacts (--metrics-out / --trace-json), so a service run exports
 * the same solver_cache.* and service.* metrics as a CLI run.
 */

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include <poll.h>
#include <unistd.h>

#include "core/network_model.hh"
#include "core/obs/obs.hh"
#include "core/solver_cache.hh"
#include "service/daemon.hh"

namespace
{

swcc::service::ServiceDaemon *g_daemon = nullptr;
int g_signal_pipe[2] = {-1, -1};

extern "C" void
handleSignal(int)
{
    if (g_daemon != nullptr) {
        g_daemon->requestStop();
    }
    const char byte = 's';
    [[maybe_unused]] const ssize_t n =
        ::write(g_signal_pipe[1], &byte, 1);
}

int
usage(std::ostream &out, int code)
{
    out << "usage: swccd --socket PATH [--workers N] [--batch-max K]\n"
           "             [--max-connections N] "
           "[--max-bus-processors N]\n"
           "             [--max-network-stages N] [--metrics-out "
           "PATH]\n"
           "             [--trace-json PATH] [--log-level LEVEL]\n";
    return code;
}

unsigned
parseUnsigned(const std::string &flag, const std::string &value,
              unsigned long max = 1u << 20)
{
    std::size_t end = 0;
    unsigned long parsed = 0;
    try {
        parsed = std::stoul(value, &end);
    } catch (const std::exception &) {
        end = 0;
    }
    if (end != value.size() || parsed == 0 || parsed > max) {
        throw std::invalid_argument(flag + " needs a count in 1.." +
                                    std::to_string(max) + ", got '" +
                                    value + "'");
    }
    return static_cast<unsigned>(parsed);
}

} // namespace

int
main(int argc, char **argv)
{
    using swcc::service::DaemonConfig;
    using swcc::service::ServiceDaemon;

    try {
        swcc::obs::consumeArgs(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "swccd: " << e.what() << "\n";
        return 2;
    }

    DaemonConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const std::string &flag) {
            if (i + 1 >= argc) {
                throw std::invalid_argument(flag +
                                            " needs a value");
            }
            return std::string(argv[++i]);
        };
        try {
            if (arg == "--socket") {
                config.socketPath = value(arg);
            } else if (arg == "--workers") {
                config.workers = parseUnsigned(arg, value(arg));
            } else if (arg == "--batch-max") {
                config.batchMax = parseUnsigned(arg, value(arg));
            } else if (arg == "--max-connections") {
                config.maxConnections =
                    parseUnsigned(arg, value(arg));
            } else if (arg == "--max-bus-processors") {
                config.limits.maxBusProcessors =
                    parseUnsigned(arg, value(arg));
            } else if (arg == "--max-network-stages") {
                config.limits.maxNetworkStages = parseUnsigned(
                    arg, value(arg), swcc::kMaxNetworkStages);
            } else if (arg == "--help" || arg == "-h") {
                return usage(std::cout, 0);
            } else {
                std::cerr << "swccd: unknown flag " << arg << "\n";
                return usage(std::cerr, 2);
            }
        } catch (const std::exception &e) {
            std::cerr << "swccd: " << e.what() << "\n";
            return 2;
        }
    }
    if (config.socketPath.empty()) {
        std::cerr << "swccd: --socket is required\n";
        return usage(std::cerr, 2);
    }

    if (::pipe(g_signal_pipe) != 0) {
        std::cerr << "swccd: cannot create signal pipe\n";
        return 1;
    }

    ServiceDaemon daemon(std::move(config));
    try {
        daemon.start();
    } catch (const std::exception &e) {
        std::cerr << "swccd: " << e.what() << "\n";
        return 1;
    }
    g_daemon = &daemon;

    struct sigaction action = {};
    action.sa_handler = handleSignal;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);

    // The ready line tooling waits for (flushed before blocking).
    std::cout << "swccd: listening on " << daemon.config().socketPath
              << std::endl;

    // Park until SIGINT/SIGTERM writes a byte on the pipe; the
    // handler has already started the drain.
    for (;;) {
        struct pollfd pfd = {g_signal_pipe[0], POLLIN, 0};
        if (::poll(&pfd, 1, -1) < 0 && errno == EINTR) {
            continue;
        }
        break;
    }

    g_daemon = nullptr;
    daemon.stop();
    std::cout << daemon.statsJson() << std::endl;
    try {
        swcc::obs::finalize();
    } catch (const std::exception &e) {
        std::cerr << "swccd: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
