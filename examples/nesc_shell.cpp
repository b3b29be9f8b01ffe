/**
 * @file
 * nesc_shell: an interactive console for the NeSC platform.
 *
 *   ./examples/nesc_shell          # REPL on stdin
 *   ./examples/nesc_shell --demo   # scripted tour (used by CI)
 *
 * Lets a user poke the whole system by hand: create backing files,
 * attach VMs over VFs, issue I/O, inspect controller counters and
 * per-VF stats, tune QoS weights, prune trees, and fsck the
 * hypervisor filesystem. Type `help` for the command list.
 */
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "virt/testbed.h"
#include "workloads/dd.h"

using namespace nesc;

namespace {

class Shell {
  public:
    explicit Shell(virt::Testbed &bed) : bed_(bed) {}

    /** Executes one command line; returns false on `quit`. */
    bool
    execute(const std::string &line)
    {
        std::istringstream in(line);
        std::string cmd;
        if (!(in >> cmd) || cmd[0] == '#')
            return true;
        if (cmd == "quit" || cmd == "exit")
            return false;
        if (cmd == "help")
            help();
        else if (cmd == "status")
            status();
        else if (cmd == "attach")
            attach(in);
        else if (cmd == "detach")
            detach(in);
        else if (cmd == "vms")
            vms();
        else if (cmd == "write")
            io(in, true);
        else if (cmd == "read")
            io(in, false);
        else if (cmd == "dd")
            dd(in);
        else if (cmd == "qos")
            qos(in);
        else if (cmd == "prune")
            prune(in);
        else if (cmd == "stats")
            stats(in);
        else if (cmd == "fsck")
            fsck();
        else if (cmd == "ls")
            ls(in);
        else
            std::printf("unknown command '%s' (try `help`)\n",
                        cmd.c_str());
        return true;
    }

  private:
    void
    help()
    {
        std::printf(
            "commands:\n"
            "  status                         platform overview\n"
            "  attach <path> <MiB> [lazy]     create image + VF + VM\n"
            "  detach <vm>                    delete the VM's VF\n"
            "  vms                            list attached VMs\n"
            "  write <vm> <block> <count>     write pattern blocks\n"
            "  read <vm> <block> <count>      read + verify blocks\n"
            "  dd <vm|host> <bs_kib> <MiB> <r|w>   bandwidth run\n"
            "  qos <vm> <weight>              arbitration weight\n"
            "  prune <vm>                     prune the VF's tree\n"
            "  stats <vm>                     per-VF device stats\n"
            "  ls <path>                      hypervisor directory\n"
            "  fsck                           check the hypervisor fs\n"
            "  quit\n");
    }

    void
    status()
    {
        std::printf("t=%.3f ms | device %llu MiB | hv fs free %llu "
                    "blocks | %zu VMs attached\n",
                    util::ns_to_ms(bed_.sim().now()),
                    static_cast<unsigned long long>(
                        bed_.device().geometry().capacity_bytes >> 20),
                    static_cast<unsigned long long>(
                        bed_.hv_fs().free_blocks()),
                    vms_.size());
        std::printf("controller: %s\n",
                    bed_.controller().counters().to_string().c_str());
        std::printf("btlb: %.1f%% hit rate (%llu/%llu)\n",
                    100.0 * bed_.controller().btlb().hit_rate(),
                    static_cast<unsigned long long>(
                        bed_.controller().btlb().hits()),
                    static_cast<unsigned long long>(
                        bed_.controller().btlb().hits() +
                        bed_.controller().btlb().misses()));
    }

    void
    attach(std::istringstream &in)
    {
        std::string path, mode;
        std::uint64_t mib = 0;
        if (!(in >> path >> mib)) {
            std::printf("usage: attach <path> <MiB> [lazy]\n");
            return;
        }
        in >> mode;
        auto vm = bed_.create_nesc_guest(path, mib * 1024,
                                         /*preallocate=*/mode != "lazy");
        if (!vm.is_ok()) {
            std::printf("attach failed: %s\n",
                        vm.status().to_string().c_str());
            return;
        }
        const int id = next_vm_++;
        std::printf("vm%d attached: VF %u, %llu MiB (%s)\n", id,
                    *bed_.guest_vf(**vm),
                    static_cast<unsigned long long>(mib),
                    mode == "lazy" ? "lazy" : "preallocated");
        vms_[id] = std::move(vm).value();
    }

    void
    detach(std::istringstream &in)
    {
        virt::GuestVm *vm = parse_vm(in);
        if (!vm)
            return;
        auto fn = bed_.guest_vf(*vm);
        if (fn.is_ok())
            (void)bed_.pf().delete_vf(*fn);
        for (auto it = vms_.begin(); it != vms_.end(); ++it) {
            if (it->second.get() == vm) {
                vms_.erase(it);
                break;
            }
        }
        std::printf("detached\n");
    }

    void
    vms()
    {
        for (const auto &[id, vm] : vms_) {
            auto fn = bed_.guest_vf(*vm);
            std::printf("vm%d: VF %u, %llu blocks\n", id,
                        fn.is_ok() ? *fn : 0,
                        static_cast<unsigned long long>(
                            vm->device().num_blocks()));
        }
        if (vms_.empty())
            std::printf("(none)\n");
    }

    void
    io(std::istringstream &in, bool write)
    {
        virt::GuestVm *vm = parse_vm(in);
        std::uint64_t block = 0;
        std::uint32_t count = 0;
        if (!vm || !(in >> block >> count)) {
            std::printf("usage: %s <vm> <block> <count>\n",
                        write ? "write" : "read");
            return;
        }
        std::vector<std::byte> buf(count * 1024ULL);
        const sim::Time t0 = bed_.sim().now();
        util::Status status = util::Status::ok();
        if (write) {
            wl::fill_pattern(kShellSeed, block * 1024, buf);
            status = vm->raw_disk().write_blocks(block, count, buf);
        } else {
            status = vm->raw_disk().read_blocks(block, count, buf);
        }
        if (!status.is_ok()) {
            std::printf("I/O failed: %s\n", status.to_string().c_str());
            return;
        }
        const double us = util::ns_to_us(bed_.sim().now() - t0);
        if (write) {
            std::printf("wrote %u blocks at %llu in %.1f us\n", count,
                        static_cast<unsigned long long>(block), us);
        } else {
            const std::int64_t bad =
                wl::check_pattern(kShellSeed, block * 1024, buf);
            std::printf("read %u blocks at %llu in %.1f us (%s)\n", count,
                        static_cast<unsigned long long>(block), us,
                        bad < 0 ? "pattern verified"
                                : "pattern mismatch/uninitialized");
        }
    }

    void
    dd(std::istringstream &in)
    {
        std::string target, dir;
        std::uint64_t bs_kib = 0, mib = 0;
        if (!(in >> target >> bs_kib >> mib >> dir)) {
            std::printf("usage: dd <vm|host> <bs_kib> <MiB> <r|w>\n");
            return;
        }
        wl::DdConfig config;
        config.request_bytes = bs_kib * 1024;
        config.total_bytes = mib << 20;
        config.write = dir == "w";
        util::Result<wl::DdResult> result =
            util::internal_error("no target");
        if (target == "host") {
            result = wl::run_dd_raw(bed_.sim(), bed_.host_raw_io(),
                                    config);
        } else {
            std::istringstream vm_in(target);
            virt::GuestVm *vm = parse_vm(vm_in);
            if (!vm)
                return;
            result = wl::run_dd_raw(bed_.sim(), vm->raw_disk(), config);
        }
        if (!result.is_ok()) {
            std::printf("dd failed: %s\n",
                        result.status().to_string().c_str());
            return;
        }
        std::printf("%llu MiB %s in %.2f ms: %.1f MB/s, mean %.1f us\n",
                    static_cast<unsigned long long>(mib),
                    config.write ? "written" : "read",
                    util::ns_to_ms(result->elapsed),
                    result->bandwidth_mb_s, result->mean_latency_us);
    }

    void
    qos(std::istringstream &in)
    {
        virt::GuestVm *vm = parse_vm(in);
        std::uint32_t weight = 0;
        if (!vm || !(in >> weight)) {
            std::printf("usage: qos <vm> <weight>\n");
            return;
        }
        auto fn = bed_.guest_vf(*vm);
        util::Status status =
            fn.is_ok() ? bed_.pf().set_qos_weight(*fn, weight)
                       : fn.status();
        std::printf("%s\n", status.is_ok() ? "ok"
                                           : status.to_string().c_str());
    }

    void
    prune(std::istringstream &in)
    {
        virt::GuestVm *vm = parse_vm(in);
        if (!vm)
            return;
        auto fn = bed_.guest_vf(*vm);
        if (!fn.is_ok())
            return;
        auto pruned = bed_.pf().prune_vf_tree(
            *fn, 0, vm->device().num_blocks());
        (void)bed_.pf().flush_btlb();
        std::printf("pruned %zu subtrees\n",
                    pruned.is_ok() ? *pruned : 0);
    }

    void
    stats(std::istringstream &in)
    {
        virt::GuestVm *vm = parse_vm(in);
        if (!vm)
            return;
        auto fn = bed_.guest_vf(*vm);
        if (!fn.is_ok())
            return;
        const auto &s = bed_.controller().stats(*fn);
        std::printf("VF %u: cmds=%llu read=%llu written=%llu holes=%llu "
                    "faults=%llu completions=%llu\n",
                    *fn, static_cast<unsigned long long>(s.commands),
                    static_cast<unsigned long long>(s.blocks_read),
                    static_cast<unsigned long long>(s.blocks_written),
                    static_cast<unsigned long long>(s.holes_zero_filled),
                    static_cast<unsigned long long>(s.faults),
                    static_cast<unsigned long long>(s.completions));
    }

    void
    ls(std::istringstream &in)
    {
        std::string path = "/"; // kept when no path is given
        in >> path;
        auto entries = bed_.hv_fs().readdir(path);
        if (!entries.is_ok()) {
            std::printf("ls: %s\n",
                        entries.status().to_string().c_str());
            return;
        }
        for (const auto &entry : *entries) {
            auto st = bed_.hv_fs().stat(entry.ino);
            std::printf("%-30s %10llu bytes %s\n", entry.name.c_str(),
                        st.is_ok() ? static_cast<unsigned long long>(
                                         st->size_bytes)
                                   : 0ULL,
                        entry.type == fs::FileType::kDirectory ? "(dir)"
                                                               : "");
        }
    }

    void
    fsck()
    {
        auto report = bed_.hv_fs().fsck();
        if (!report.is_ok()) {
            std::printf("fsck failed: %s\n",
                        report.status().to_string().c_str());
            return;
        }
        std::printf("fsck: %s — %llu files, %llu dirs, %llu blocks "
                    "referenced, %llu leaked, %llu orphans\n",
                    report->clean ? "clean" : "ERRORS",
                    static_cast<unsigned long long>(report->files),
                    static_cast<unsigned long long>(report->directories),
                    static_cast<unsigned long long>(
                        report->referenced_blocks),
                    static_cast<unsigned long long>(
                        report->leaked_blocks),
                    static_cast<unsigned long long>(
                        report->orphan_inodes));
        for (const auto &message : report->errors)
            std::printf("  ! %s\n", message.c_str());
    }

    virt::GuestVm *
    parse_vm(std::istringstream &in)
    {
        std::string token;
        if (!(in >> token) || token.size() < 3 ||
            token.substr(0, 2) != "vm") {
            std::printf("expected a vm id like vm0\n");
            return nullptr;
        }
        const int id = std::atoi(token.c_str() + 2);
        auto it = vms_.find(id);
        if (it == vms_.end()) {
            std::printf("no such vm '%s'\n", token.c_str());
            return nullptr;
        }
        return it->second.get();
    }

    static constexpr std::uint64_t kShellSeed = 0x5e11;

    virt::Testbed &bed_;
    std::map<int, std::unique_ptr<virt::GuestVm>> vms_;
    int next_vm_ = 0;
};

const char *kDemoScript[] = {
    "status",
    "attach /demo/a.img 16",
    "attach /demo/b.img 16 lazy",
    "vms",
    "write vm0 12000 8",
    "read vm0 12000 8",
    "write vm1 0 4",
    "read vm1 0 4",
    "dd vm0 32 8 w",
    "dd host 32 8 w",
    "qos vm0 4",
    "stats vm0",
    "stats vm1",
    "prune vm0",
    "read vm0 12000 8",
    "ls /demo",
    "fsck",
    "status",
};

} // namespace

int
main(int argc, char **argv)
{
    auto bed_or = virt::Testbed::create();
    if (!bed_or.is_ok()) {
        std::fprintf(stderr, "testbed: %s\n",
                     bed_or.status().to_string().c_str());
        return 1;
    }
    Shell shell(**bed_or);

    if (argc > 1 && std::string(argv[1]) == "--demo") {
        for (const char *line : kDemoScript) {
            std::printf("nesc> %s\n", line);
            shell.execute(line);
        }
        return 0;
    }

    std::printf("NeSC interactive shell — type `help`\n");
    std::string line;
    while (true) {
        std::printf("nesc> ");
        std::fflush(stdout);
        if (!std::getline(std::cin, line))
            break;
        if (!shell.execute(line))
            break;
    }
    return 0;
}
