/*
 * Un-instrumented host profiler: an LD_PRELOAD library that samples
 * its own process on ITIMER_PROF. Each sample keeps the interrupted
 * PC plus the return addresses above it, from glibc's backtrace().
 * At exit the process writes its executable, its mappings and its
 * samples to "<pid>.samples" beside the library. scripts/hostprof.py
 * builds the library, runs a command under it and resolves the
 * samples; see EXPERIMENTS.md ("Kernel profiling").
 *
 * x86-64 only: the handler reads the interrupted PC from REG_RIP.
 * backtrace() is not async-signal-safe by contract. It is safe here
 * where libgcc finds unwind tables with glibc's async-signal-safe
 * _dl_find_object (GCC 12 and glibc 2.35 or later); an older unwinder
 * takes the loader lock, so a sample that lands in dlopen or in C++
 * exception unwinding can deadlock the process.
 */

#if !defined(__x86_64__)
#error "hostprof reads the interrupted PC from REG_RIP: x86-64 only"
#endif

#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

/* Frames kept per sample: the PC and up to maxFrames - 1 callers. */
enum { maxFrames = 12, maxSamples = 1 << 18, periodUs = 1000 };

struct sample
{
    uintptr_t frame[maxFrames];
    int n;
};

static struct sample *samples;
static unsigned nsamples;

static void
onProf(int sig, siginfo_t *info, void *ctx)
{
    (void)sig;
    (void)info;
    unsigned i = __atomic_fetch_add(&nsamples, 1, __ATOMIC_RELAXED);
    if (i >= maxSamples)
        return;
    const ucontext_t *uc = ctx;
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    void *bt[maxFrames + 4];
    int got = backtrace(bt, maxFrames + 4);
    struct sample *s = &samples[i];
    s->frame[0] = pc;
    s->n = 1;
    /* The unwinder passes through the signal frame: the interrupted
     * PC is followed by its callers' return addresses. */
    int k = 0;
    while (k < got && (uintptr_t)bt[k] != pc)
        ++k;
    for (++k; k < got && s->n < maxFrames; ++k)
        s->frame[s->n++] = (uintptr_t)bt[k];
}

__attribute__((constructor)) static void
start(void)
{
    samples = mmap(NULL, sizeof(struct sample) * maxSamples,
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                   -1, 0);
    if (samples == MAP_FAILED) {
        samples = NULL;
        return;
    }
    /* backtrace() loads the unwinder on its first call; make that
     * call here, not inside the signal handler. */
    void *warm[4];
    backtrace(warm, 4);

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, periodUs}, {0, periodUs}};
    setitimer(ITIMER_PROF, &it, NULL);
}

static void
copyFile(FILE *out, const char *path)
{
    char buf[4096];
    int fd = open(path, O_RDONLY);
    if (fd < 0)
        return;
    ssize_t n;
    while ((n = read(fd, buf, sizeof buf)) > 0)
        fwrite(buf, 1, (size_t)n, out);
    close(fd);
}

__attribute__((destructor)) static void
finish(void)
{
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    if (samples == NULL || nsamples == 0)
        return;

    /* The output goes beside this library. */
    Dl_info self;
    if (!dladdr((void *)finish, &self) || self.dli_fname == NULL)
        return;
    char path[4096];
    const char *slash = strrchr(self.dli_fname, '/');
    int dirlen = slash ? (int)(slash - self.dli_fname) : 1;
    snprintf(path, sizeof path, "%.*s/%d.samples", dirlen,
             slash ? self.dli_fname : ".", (int)getpid());
    FILE *out = fopen(path, "w");
    if (out == NULL)
        return;

    char exe[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len > 0 ? len : 0] = '\0';
    fprintf(out, "exe %s\nmaps\n", exe);
    copyFile(out, "/proc/self/maps");
    fprintf(out, "samples\n");
    unsigned n = nsamples < maxSamples ? nsamples : maxSamples;
    for (unsigned i = 0; i < n; ++i) {
        for (int f = 0; f < samples[i].n; ++f)
            fprintf(out, f ? " %lx" : "%lx",
                    (unsigned long)samples[i].frame[f]);
        fputc('\n', out);
    }
    fclose(out);
}
